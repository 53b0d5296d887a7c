package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestBuiltinsMatchThePaperTable(t *testing.T) {
	specs := Builtins()
	if len(specs) != 10 {
		t.Fatalf("%d builtins, want 10", len(specs))
	}
	wantNames := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10"}
	for i, sp := range specs {
		if sp.Name != wantNames[i] {
			t.Fatalf("builtin %d = %s, want %s", i, sp.Name, wantNames[i])
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("builtin %s invalid: %v", sp.Name, err)
		}
		if got, want := sp.Power, i >= 5; got != want {
			t.Fatalf("%s power = %v, want %v", sp.Name, got, want)
		}
		if sp.IsVariant() {
			t.Fatalf("%s is a builtin but reports variant overrides", sp.Name)
		}
		if sp.Describe() == "" {
			t.Fatalf("%s has no generated description", sp.Name)
		}
	}
	// Spot-check one row of Table III survives the round trip to specs.
	s5, err := ByName("S5")
	if err != nil {
		t.Fatal(err)
	}
	if s5.BBProb != 0.75 || s5.MinTB != 20 || s5.MaxTB != 285 || !s5.HalveNodes {
		t.Fatalf("S5 spec drifted from Table III: %+v", s5)
	}
}

func TestByNameVariantSyntax(t *testing.T) {
	sp, err := ByName("S4@div=16,wtn=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Div != 16 || sp.WalltimeNoiseSigma != 0.5 {
		t.Fatalf("variant fields not applied: %+v", sp)
	}
	if sp.FamilyName() != "S4" {
		t.Fatalf("variant family = %s, want S4", sp.FamilyName())
	}
	if !sp.IsVariant() {
		t.Fatal("variant spec does not report IsVariant")
	}
	if !strings.Contains(sp.Name, "@") {
		t.Fatalf("variant name %q lacks suffix", sp.Name)
	}

	for _, bad := range []string{"S11", "S4@div=0.5", "S4@bogus=1", "S4@ia=-1", "S4@wtn"} {
		if _, err := ByName(bad); err == nil {
			t.Fatalf("ByName(%q) accepted", bad)
		}
	}
}

func TestTraceBuiltins(t *testing.T) {
	specs := TraceBuiltins()
	if len(specs) != 5 {
		t.Fatalf("%d trace builtins, want 5", len(specs))
	}
	for i, sp := range specs {
		want := fmt.Sprintf("T%d", i+1)
		if sp.Name != want {
			t.Fatalf("trace builtin %d = %s, want %s", i, sp.Name, want)
		}
		if sp.Trace != "t1" {
			t.Fatalf("%s trace = %q, want t1", sp.Name, sp.Trace)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", sp.Name, err)
		}
		if !sp.IsVariant() {
			t.Fatalf("%s replays a trace but does not report variant materials", sp.Name)
		}
		if sp.FamilyName() != sp.Name {
			t.Fatalf("%s family = %s; trace scenarios are their own family", sp.Name, sp.FamilyName())
		}
		back, err := ByName(sp.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", sp.Name, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("ByName(%s) = %+v, want %+v", sp.Name, back, sp)
		}
	}
	// T-mixes mirror the Table III S-mixes row for row.
	s3, _ := ByName("S3")
	t3, _ := ByName("T3")
	if t3.BBProb != s3.BBProb || t3.MinTB != s3.MinTB || t3.MaxTB != s3.MaxTB || t3.HalveNodes != s3.HalveNodes {
		t.Fatalf("T3 mix drifted from S3: %+v vs %+v", t3, s3)
	}
}

func TestByNameNewAxes(t *testing.T) {
	sp, err := ByName("S4@zipf=0.9,burst=5x0.1")
	if err != nil {
		t.Fatal(err)
	}
	if sp.ZipfTheta != 0.9 || sp.ZipfUsers == 0 {
		t.Fatalf("zipf axis not applied: %+v", sp)
	}
	if sp.Burst == nil || sp.Burst.Factor != 5 || sp.Burst.Frac != 0.1 {
		t.Fatalf("burst axis not applied: %+v", sp.Burst)
	}
	if sp.FamilyName() != "S4" {
		t.Fatalf("variant family = %s, want S4", sp.FamilyName())
	}
	if sp.Name != "S4@zipf=0.9,burst=5x0.1" {
		t.Fatalf("variant name = %q; chained variants must reproduce the ByName syntax", sp.Name)
	}
	back, err := ByName(sp.Name)
	if err != nil {
		t.Fatalf("round-tripping %s: %v", sp.Name, err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("ByName(%s) changed the spec across the round trip", sp.Name)
	}

	// zipf=0 is a real variant (uniform ownership over the default
	// population), not a no-op.
	zero, err := ByName("S4@zipf=0")
	if err != nil {
		t.Fatal(err)
	}
	if zero.ZipfTheta != 0 || zero.ZipfUsers == 0 || !zero.IsVariant() {
		t.Fatalf("zipf=0 variant: %+v", zero)
	}
}

// The satellite contract: every malformed variant list is rejected loudly,
// naming the offending token.
func TestByNameVariantErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		want string // substring the error must carry (the offending token)
	}{
		{"S4@bogus=1", "bogus"},
		{"S4@zipf=0.5,zipf=0.9", "twice"},
		{"S4@zipf=0.5,zipf-theta=0.9", "twice"}, // short and long form are one axis
		{"S4@ia=2,interarrival=0.5", "twice"},
		{"S4@burst=5", "5"},         // missing the x separator
		{"S4@burst=ax0.1", "ax0.1"}, // non-numeric factor
		{"S4@burst=0.5x0.1", "0.5"}, // factor below 1
		{"S4@burst=4x1.5", "1.5"},   // fraction outside (0,1)
		{"S4@ia=abc", "abc"},
		{"S4@zipf=0.5,", "empty"},
		{"S4@,zipf=0.5", "empty"},
		{"S4@zipf=0.5,,ia=2", "empty"},
		{"S4@zipf=-1", "-1"},
		{"T4@burst=4x0.1", "mutually exclusive"}, // trace carries its own arrivals
		{"T9", "unknown"},
	}
	for _, tc := range cases {
		_, err := ByName(tc.name)
		if err == nil {
			t.Fatalf("ByName(%q) accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ByName(%q) error %q does not name the offending token %q", tc.name, err, tc.want)
		}
	}
}

func TestThetaSkewCampaign(t *testing.T) {
	c := ThetaSkewCampaign(TinyScaleSpec())
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Scenarios) != 7 {
		t.Fatalf("%d scenarios, want 7 (S4 + zipf ladder 0/0.5/0.9/0.99 + two burst settings)", len(c.Scenarios))
	}
	for _, sp := range c.Scenarios {
		if sp.FamilyName() != "S4" {
			t.Fatalf("%s family = %s, want S4", sp.Name, sp.FamilyName())
		}
	}
	if _, err := CampaignByName("theta-skew", TinyScaleSpec()); err != nil {
		t.Fatalf("theta-skew not registered: %v", err)
	}
}

func TestAxesLaddersAreValidVariants(t *testing.T) {
	base, err := ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range Axes() {
		if ax.Description == "" {
			t.Fatalf("axis %s has no description", ax.Name)
		}
		for _, v := range ax.Values {
			sp, err := Variant(base, ax.Name, v)
			if err != nil {
				t.Fatalf("axis %s value %g: %v", ax.Name, v, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("axis %s value %g produced invalid spec: %v", ax.Name, v, err)
			}
			// The short key resolves the same spec through name syntax.
			back, err := ByName(sp.Name)
			if err != nil {
				t.Fatalf("round-tripping %s: %v", sp.Name, err)
			}
			if !reflect.DeepEqual(sp, back) {
				t.Fatalf("ByName(%s) = %+v, want %+v", sp.Name, back, sp)
			}
		}
	}
}

func TestExpandOrderAndDeterminism(t *testing.T) {
	c := PaperCampaign(QuickScaleSpec())
	cells := c.Expand()
	if len(cells) != 20 {
		t.Fatalf("%d cells, want 20 (10 scenarios x 2 methods)", len(cells))
	}
	for i, cell := range cells {
		if cell.Index != i {
			t.Fatalf("cell %d carries index %d", i, cell.Index)
		}
		wantScenario := c.Scenarios[i/2].Name
		wantMethod := c.Methods[i%2].Kind
		if cell.Scenario.Name != wantScenario || cell.Method.Kind != wantMethod {
			t.Fatalf("cell %d = %s/%s, want %s/%s (scenario-major order)",
				i, cell.Scenario.Name, cell.Method.Kind, wantScenario, wantMethod)
		}
	}
	if !reflect.DeepEqual(cells, c.Expand()) {
		t.Fatal("Expand is not deterministic")
	}
}

func TestExpandSeedAxis(t *testing.T) {
	c := PaperCampaign(QuickScaleSpec())
	c.Scenarios = c.Scenarios[:1]
	c.Methods = c.Methods[:1]
	c.Seeds = []int64{3, 9}
	cells := c.Expand()
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	if cells[0].Seed != 3 || cells[1].Seed != 9 {
		t.Fatalf("seed axis out of order: %d, %d", cells[0].Seed, cells[1].Seed)
	}
}

// The satellite contract: JSON marshal -> unmarshal -> Expand is identical
// to direct expansion for every builtin campaign.
func TestCampaignJSONRoundTrip(t *testing.T) {
	for _, c := range BuiltinCampaigns(QuickScaleSpec()) {
		var buf bytes.Buffer
		if err := c.Dump(&buf); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !reflect.DeepEqual(c, loaded) {
			t.Fatalf("%s: spec changed across the JSON round trip:\n%+v\nvs\n%+v", c.Name, c, loaded)
		}
		if !reflect.DeepEqual(c.Expand(), loaded.Expand()) {
			t.Fatalf("%s: round-tripped expansion differs", c.Name)
		}
		// Dumping the loaded spec reproduces the bytes (golden-file
		// stability).
		var buf2 bytes.Buffer
		if err := loaded.Dump(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: Dump is not byte-stable", c.Name)
		}
	}
}

func TestLoadRejectsUnknownFieldsAndBadSpecs(t *testing.T) {
	good := PaperCampaign(QuickScaleSpec())
	var buf bytes.Buffer
	if err := good.Dump(&buf); err != nil {
		t.Fatal(err)
	}

	// Unknown field.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["scenarioss"] = []any{}
	b, _ := json.Marshal(raw)
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatal("Load accepted an unknown field")
	}

	// Invalid scale sizing must fail loudly at Load.
	bad := good
	bad.Scale.Div = 0
	var badBuf bytes.Buffer
	enc := json.NewEncoder(&badBuf)
	if err := enc.Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&badBuf); err == nil || !strings.Contains(err.Error(), "div") {
		t.Fatalf("Load(div=0) error = %v, want a div complaint", err)
	}
}

func TestValidationCatchesFieldErrors(t *testing.T) {
	base, _ := ByName("S1")
	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
	}{
		{"negative bbprob", func(s *ScenarioSpec) { s.BBProb = -0.1 }},
		{"bbprob above one", func(s *ScenarioSpec) { s.BBProb = 1.5 }},
		{"zero min_tb", func(s *ScenarioSpec) { s.MinTB = 0 }},
		{"max below min", func(s *ScenarioSpec) { s.MaxTB = s.MinTB - 1 }},
		{"negative div", func(s *ScenarioSpec) { s.Div = -1 }},
		{"negative ia scale", func(s *ScenarioSpec) { s.InterarrivalScale = -0.5 }},
		{"negative wtn sigma", func(s *ScenarioSpec) { s.WalltimeNoiseSigma = -1 }},
		{"power fields without power", func(s *ScenarioSpec) { s.MinW = 100 }},
		{"no name", func(s *ScenarioSpec) { s.Name = "" }},
	}
	for _, tc := range cases {
		sp := base
		tc.mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, sp)
		}
	}

	scaleCases := []func(*ScaleSpec){
		func(s *ScaleSpec) { s.Div = 0 },
		func(s *ScaleSpec) { s.Window = -1 },
		func(s *ScaleSpec) { s.SetSize = 0 },
		func(s *ScaleSpec) { s.TraceDuration = 0 },
		func(s *ScaleSpec) { s.SetsPerKind = 0 },
		func(s *ScaleSpec) { s.MeanInterarrival = -5 },
		func(s *ScaleSpec) { s.EpsDecay = 0 },
	}
	for i, mutate := range scaleCases {
		sc := QuickScaleSpec()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Fatalf("scale case %d: Validate accepted %+v", i, sc)
		}
	}

	methodCases := []MethodSpec{
		{Kind: "bogus"},
		{Kind: KindHeuristic, Train: true},
		{Kind: KindScalarRL, Model: "x.model"},
		{Kind: KindMRSch, Model: "x.model", Train: true},
		{Kind: KindOptimize, CNN: true},
	}
	for i, m := range methodCases {
		if err := m.Validate(); err == nil {
			t.Fatalf("method case %d: Validate accepted %+v", i, m)
		}
	}
}

func TestMethodByName(t *testing.T) {
	for _, k := range Kinds() {
		for _, name := range []string{string(k), k.DisplayName()} {
			m, err := MethodByName(name)
			if err != nil {
				t.Fatalf("MethodByName(%q): %v", name, err)
			}
			if m.Kind != k {
				t.Fatalf("MethodByName(%q) = %s, want %s", name, m.Kind, k)
			}
		}
	}
	if _, err := MethodByName("sjf"); err == nil {
		t.Fatal("MethodByName accepted an unknown method")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "tiny"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != name {
			t.Fatalf("ScaleByName(%q).Name = %q", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("builtin scale %s invalid: %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("ScaleByName accepted an unknown scale")
	}
}

// The figure campaigns are the paper's grids: S1-S5 for Figures 3 and 5-7,
// the power-capped S6-S10 for Figure 10, the four methods in plotting order
// with every trained kind training its own family models.
func TestFigureCampaignShapes(t *testing.T) {
	for name, want := range map[string]struct {
		power   bool
		methods []string
	}{
		"fig3":   {false, []string{"MLP", "CNN"}},
		"fig567": {false, []string{"MRSch", "Optimization", "Scalar RL", "Heuristic"}},
		"fig10":  {true, []string{"MRSch", "Optimization", "Scalar RL", "Heuristic"}},
	} {
		c, err := CampaignByName(name, TinyScaleSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Scenarios) != 5 {
			t.Fatalf("%s: %d scenarios, want 5", name, len(c.Scenarios))
		}
		for _, sp := range c.Scenarios {
			if sp.Power != want.power || sp.IsVariant() {
				t.Fatalf("%s: scenario %s (power=%v) does not belong to the grid", name, sp.Name, sp.Power)
			}
		}
		if len(c.Methods) != len(want.methods) {
			t.Fatalf("%s: %d methods, want %d", name, len(c.Methods), len(want.methods))
		}
		for i, m := range c.Methods {
			if m.DisplayName() != want.methods[i] {
				t.Fatalf("%s: method %d is %q, want %q", name, i, m.DisplayName(), want.methods[i])
			}
			if m.Train != m.Kind.Trained() {
				t.Fatalf("%s: method %s has train=%v", name, m.DisplayName(), m.Train)
			}
		}
	}
}
