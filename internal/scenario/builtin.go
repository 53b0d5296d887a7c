package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Builtins returns the ten paper scenarios as specs: the Table III
// burst-buffer ladder S1-S5 and the §V-E power-capped S6-S10. The specs are
// generated from internal/workload's tables, which stay the single source
// of the mix parameters.
func Builtins() []ScenarioSpec {
	var out []ScenarioSpec
	for _, sc := range workload.Scenarios() {
		out = append(out, fromMix(sc))
	}
	for _, psc := range workload.PowerScenarios() {
		sp := fromMix(psc.Scenario)
		sp.Power = true
		sp.MinW = psc.MinW
		sp.MaxW = psc.MaxW
		out = append(out, sp)
	}
	return out
}

func fromMix(sc workload.Scenario) ScenarioSpec {
	return ScenarioSpec{
		Name:       sc.Name,
		BBProb:     sc.BBProb,
		MinTB:      sc.MinTB,
		MaxTB:      sc.MaxTB,
		HalveNodes: sc.HalveNodes,
	}
}

// TraceBuiltins returns the cross-machine transfer family: the Table III
// mixes T1-T5 (mirroring S1-S5) applied to the builtin "t1" ingested trace
// instead of the synthetic generator. Each T-scenario is its own family —
// training on it trains against the trace — while transfer evaluation of
// an S-family model uses a method's Model file, so the per-family training
// contract is untouched.
func TraceBuiltins() []ScenarioSpec {
	var out []ScenarioSpec
	for i, sc := range workload.Scenarios() {
		sp := fromMix(sc)
		sp.Name = fmt.Sprintf("T%d", i+1)
		sp.Trace = "t1"
		sp.Description = fmt.Sprintf("the %s burst-buffer mix replayed over the ingested t1 trace (cross-machine transfer)", sc.Name)
		out = append(out, sp)
	}
	return out
}

// ByName resolves a scenario name: a builtin ("S4", trace family "T4"), or
// a builtin with variant suffixes ("S4@wtn=0.5", "S4@zipf=0.9,burst=5x0.25").
// Variant keys are the Axes() names or their short forms — div, ia
// (interarrival), wtn (walltime-noise), zipf (zipf-theta) — plus burst,
// whose value is <factor>x<fraction>. Each axis may appear once; empty
// entries (trailing or doubled commas) and unknown keys are rejected with
// the offending token named.
func ByName(name string) (ScenarioSpec, error) {
	base, suffix, hasVariant := strings.Cut(name, "@")
	var spec ScenarioSpec
	found := false
	for _, s := range append(Builtins(), TraceBuiltins()...) {
		if s.Name == base {
			spec, found = s, true
			break
		}
	}
	if !found {
		return ScenarioSpec{}, fmt.Errorf("scenario: unknown scenario %q (builtins: S1-S10, trace family T1-T5)", base)
	}
	if !hasVariant {
		return spec, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(suffix, ",") {
		if part == "" {
			return ScenarioSpec{}, fmt.Errorf("scenario: variant list %q has an empty entry (trailing or doubled comma)", suffix)
		}
		key, valStr, ok := strings.Cut(part, "=")
		if !ok {
			return ScenarioSpec{}, fmt.Errorf("scenario: variant %q is not key=value", part)
		}
		canon, ok := canonicalAxis(key)
		if !ok {
			return ScenarioSpec{}, fmt.Errorf("scenario: unknown variant axis %q in %q (want div, interarrival/ia, walltime-noise/wtn, zipf-theta/zipf, or burst)", key, part)
		}
		if seen[canon] {
			return ScenarioSpec{}, fmt.Errorf("scenario: variant axis %q appears twice in %q", key, suffix)
		}
		seen[canon] = true
		var err error
		if canon == AxisBurst {
			spec, err = parseBurstVariant(spec, valStr)
		} else {
			var val float64
			val, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				return ScenarioSpec{}, fmt.Errorf("scenario: variant %s value %q: %w", key, valStr, err)
			}
			spec, err = Variant(spec, canon, val)
		}
		if err != nil {
			return ScenarioSpec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return ScenarioSpec{}, err
	}
	return spec, nil
}

func parseBurstVariant(base ScenarioSpec, valStr string) (ScenarioSpec, error) {
	factorStr, fracStr, ok := strings.Cut(valStr, "x")
	if !ok {
		return ScenarioSpec{}, fmt.Errorf("scenario: burst variant value %q is not <factor>x<fraction> (e.g. burst=5x0.25)", valStr)
	}
	factor, ferr := strconv.ParseFloat(factorStr, 64)
	frac, perr := strconv.ParseFloat(fracStr, 64)
	if ferr != nil || perr != nil {
		return ScenarioSpec{}, fmt.Errorf("scenario: burst variant value %q: factor and fraction must both be numbers", valStr)
	}
	return BurstVariant(base, factor, frac)
}

// The variant axis names.
const (
	AxisDiv           = "div"
	AxisInterarrival  = "interarrival"
	AxisWalltimeNoise = "walltime-noise"
	AxisZipf          = "zipf-theta"
	AxisBurst         = "burst"
)

// canonicalAxis maps an axis name or short form to its canonical name.
func canonicalAxis(key string) (string, bool) {
	switch key {
	case AxisDiv:
		return AxisDiv, true
	case AxisInterarrival, "ia":
		return AxisInterarrival, true
	case AxisWalltimeNoise, "wtn":
		return AxisWalltimeNoise, true
	case AxisZipf, "zipf":
		return AxisZipf, true
	case AxisBurst:
		return AxisBurst, true
	}
	return "", false
}

// Axis is one theta-variant dimension with its default ladder of values.
type Axis struct {
	Name        string    `json:"name"`
	Short       string    `json:"short"`
	Description string    `json:"description"`
	Values      []float64 `json:"values"`
}

// Axes returns the theta-variant dimensions the builtin variant campaign
// sweeps, with the default ladders.
func Axes() []Axis {
	return []Axis{
		{
			Name: AxisDiv, Short: "div",
			Description: "machine-size ladder: override the campaign's Theta divisor (smaller = larger machine)",
			Values:      []float64{16, 64},
		},
		{
			Name: AxisInterarrival, Short: "ia",
			Description: "interarrival stress: multiply the base trace's mean interarrival (< 1 = denser queue)",
			Values:      []float64{0.75, 1.5},
		},
		{
			Name: AxisWalltimeNoise, Short: "wtn",
			Description: "walltime-estimate noise: multiplicative lognormal sigma on user estimates at evaluation",
			Values:      []float64{0.25, 0.5},
		},
		{
			Name: AxisZipf, Short: "zipf",
			Description: "zipf user skew: label jobs with user ids drawn Zipf(theta) over a fixed population (0 = uniform; accounting only, schedulers stay user-blind)",
			Values:      []float64{0.5, 0.9, 0.99},
		},
	}
}

// Variant derives a theta-variant spec from a base scenario: the axis value
// is applied, the name gains an "@key=value" suffix, and the family is
// pinned to the base so the variant shares the base's trained model.
func Variant(base ScenarioSpec, axis string, value float64) (ScenarioSpec, error) {
	out := base
	out.Family = base.FamilyName()
	var short string
	switch axis {
	case AxisDiv:
		if value < 1 || value != math.Trunc(value) {
			return ScenarioSpec{}, fmt.Errorf("scenario: div variant value %g must be a positive integer", value)
		}
		out.Div = int(value)
		short = "div"
	case AxisInterarrival, "ia":
		if value <= 0 {
			return ScenarioSpec{}, fmt.Errorf("scenario: interarrival variant value %g must be positive", value)
		}
		out.InterarrivalScale = value
		short = "ia"
	case AxisWalltimeNoise, "wtn":
		if value <= 0 {
			return ScenarioSpec{}, fmt.Errorf("scenario: walltime-noise variant value %g must be positive", value)
		}
		out.WalltimeNoiseSigma = value
		short = "wtn"
	case AxisZipf, "zipf":
		if value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
			return ScenarioSpec{}, fmt.Errorf("scenario: zipf-theta variant value %g must be a finite value >= 0", value)
		}
		out.ZipfTheta = value
		out.ZipfUsers = workload.DefaultZipfUsers
		short = "zipf"
	default:
		return ScenarioSpec{}, fmt.Errorf("scenario: unknown variant axis %q (want div, interarrival/ia, walltime-noise/wtn, or zipf-theta/zipf; burst uses BurstVariant)", axis)
	}
	out.Name = variantName(base.Name, fmt.Sprintf("%s=%s", short, trimFloat(value)))
	return out, nil
}

// BurstVariant derives a bursty-arrival variant: Variant's counterpart for
// the two-component burst axis (factor = in-burst rate multiplier, frac =
// stationary burst fraction; see BurstSpec). Like Variant, the name gains a
// suffix and the family pins to the base.
func BurstVariant(base ScenarioSpec, factor, frac float64) (ScenarioSpec, error) {
	out := base
	out.Family = base.FamilyName()
	b := &BurstSpec{Factor: factor, Frac: frac}
	if err := b.Validate(); err != nil {
		return ScenarioSpec{}, fmt.Errorf("scenario: %s variant of %s: %w", AxisBurst, base.Name, err)
	}
	out.Burst = b
	out.Name = variantName(base.Name, fmt.Sprintf("burst=%sx%s", trimFloat(factor), trimFloat(frac)))
	return out, nil
}

// variantName appends one key=value token to a scenario name: the first
// token opens the @-suffix, later ones join it comma-separated, so chained
// variants produce exactly the ByName syntax and round-trip through it.
func variantName(baseName, token string) string {
	if strings.Contains(baseName, "@") {
		return baseName + "," + token
	}
	return baseName + "@" + token
}

// QuickScaleSpec is the CI-sized campaign sizing: a 1/32 Theta and a
// compressed training budget. Figures keep their qualitative shape at this
// scale; absolute numbers shift.
func QuickScaleSpec() ScaleSpec {
	return ScaleSpec{
		Name:             "quick",
		Div:              32,
		TraceDuration:    1.0 * 86400,
		MeanInterarrival: 110,
		Window:           10,
		SetsPerKind:      5,
		SetSize:          80,
		StepsPerEpisode:  32,
		EpsDecay:         0.78,
		Seed:             1,
	}
}

// StandardScaleSpec is a heavier sizing for standalone runs: a 1/16 Theta,
// a two-day trace, and a longer curriculum.
func StandardScaleSpec() ScaleSpec {
	return ScaleSpec{
		Name:             "standard",
		Div:              16,
		TraceDuration:    2 * 86400,
		MeanInterarrival: 110,
		Window:           10,
		SetsPerKind:      8,
		SetSize:          100,
		StepsPerEpisode:  32,
		EpsDecay:         0.88,
		Seed:             1,
	}
}

// TinyScaleSpec is the smallest sizing: a smoke-test replica for CI
// campaign runs and the cmd binaries' -scale tiny.
func TinyScaleSpec() ScaleSpec {
	s := QuickScaleSpec()
	s.Name = "tiny"
	s.Div = 64
	s.TraceDuration = 0.4 * 86400
	s.SetsPerKind = 2
	s.SetSize = 30
	return s
}

// ScaleByName resolves a builtin sizing name.
func ScaleByName(name string) (ScaleSpec, error) {
	for _, s := range []ScaleSpec{QuickScaleSpec(), StandardScaleSpec(), TinyScaleSpec()} {
		if s.Name == name {
			return s, nil
		}
	}
	return ScaleSpec{}, fmt.Errorf("scenario: unknown scale %q (builtins: quick, standard, tiny)", name)
}

// PaperCampaign is the paper's evaluation grid under the training-free
// methods: every builtin scenario, two cells each (mrsch-exp -fig sweep
// renders it). The description string is part of the committed golden spec.
func PaperCampaign(scale ScaleSpec) CampaignSpec {
	return CampaignSpec{
		Name:        "paper",
		Description: "Table III S1-S5 and the power-capped S6-S10 under the training-free methods (the legacy -fig sweep grid)",
		Scale:       scale,
		Scenarios:   Builtins(),
		Methods: []MethodSpec{
			{Kind: KindHeuristic},
			{Kind: KindOptimize},
		},
	}
}

// fourMethods is the §IV-D comparison in the paper's plotting order, every
// trained kind training one model per scenario family.
func fourMethods() []MethodSpec {
	var out []MethodSpec
	for _, k := range Kinds() {
		out = append(out, MethodSpec{Kind: k, Train: k.Trained()})
	}
	return out
}

// ThetaVariantCampaign sweeps the three theta-variant axes over the S4
// family (the paper's reference heavy-contention mix): every Axes() value
// becomes one derived scenario, evaluated under the training-free methods.
func ThetaVariantCampaign(scale ScaleSpec) CampaignSpec {
	base, err := ByName("S4")
	if err != nil {
		panic(err) // builtin table broken
	}
	var variants []ScenarioSpec
	for _, ax := range Axes() {
		for _, v := range ax.Values {
			sp, err := Variant(base, ax.Name, v)
			if err != nil {
				panic(err) // Axes() values must be valid for their axis
			}
			variants = append(variants, sp)
		}
	}
	return CampaignSpec{
		Name:        "theta-variants",
		Description: "S4 stressed along the div / interarrival / walltime-noise / zipf axes under the training-free methods",
		Scale:       scale,
		Scenarios:   variants,
		Methods: []MethodSpec{
			{Kind: KindHeuristic},
			{Kind: KindOptimize},
		},
	}
}

// ThetaSkewCampaign sweeps the realism axes over the S4 family: the Zipf
// user-skew theta ladder 0 -> 0.99 (0 = uniform baseline over the same
// population) plus two bursty-arrival settings, next to plain S4 as the
// unattributed reference, under the training-free methods.
func ThetaSkewCampaign(scale ScaleSpec) CampaignSpec {
	base, err := ByName("S4")
	if err != nil {
		panic(err) // builtin table broken
	}
	scenarios := []ScenarioSpec{base}
	for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
		sp, err := Variant(base, AxisZipf, theta)
		if err != nil {
			panic(err) // ladder values must be valid zipf thetas
		}
		scenarios = append(scenarios, sp)
	}
	for _, b := range []struct{ factor, frac float64 }{{4, 0.3}, {8, 0.2}} {
		sp, err := BurstVariant(base, b.factor, b.frac)
		if err != nil {
			panic(err) // ladder values must be valid burst settings
		}
		scenarios = append(scenarios, sp)
	}
	return CampaignSpec{
		Name:        "theta-skew",
		Description: "S4 under the realistic-workload axes: the zipf user-skew theta ladder and Markov-modulated bursty arrivals, training-free methods",
		Scale:       scale,
		Scenarios:   scenarios,
		Methods: []MethodSpec{
			{Kind: KindHeuristic},
			{Kind: KindOptimize},
		},
	}
}

// BuiltinCampaigns returns the named campaigns -dump-campaign can emit, at
// the given sizing. The last three are the grids behind the paper's figures:
// fig3 (§V-A) runs S1-S5 under MRSch with the MLP and with the CNN state
// module — its MLP family models are the ones fig567 trains, a label being
// no part of a model's identity; fig567 (§V-C) is the four-method comparison
// Figures 5, 6 and 7 all render; fig10 (§V-E) is the same comparison on the
// power-capped S6-S10.
func BuiltinCampaigns(scale ScaleSpec) []CampaignSpec {
	all := Builtins() // S1-S5, then the power-capped S6-S10
	tableIII, powerCapped := all[:len(all)/2], all[len(all)/2:]
	return []CampaignSpec{
		PaperCampaign(scale), ThetaVariantCampaign(scale), ThetaSkewCampaign(scale),
		{
			Name:        "fig3",
			Description: "Figure 3: S1-S5 under MRSch with the MLP and the CNN state module",
			Scale:       scale,
			Scenarios:   tableIII,
			Methods: []MethodSpec{
				{Kind: KindMRSch, Train: true, Label: "MLP"},
				{Kind: KindMRSch, Train: true, CNN: true, Label: "CNN"},
			},
		},
		{
			Name:        "fig567",
			Description: "Figures 5-7: S1-S5 under MRSch, Optimization, Scalar RL and Heuristic",
			Scale:       scale,
			Scenarios:   tableIII,
			Methods:     fourMethods(),
		},
		{
			Name:        "fig10",
			Description: "Figure 10: the power-capped S6-S10 under the four methods",
			Scale:       scale,
			Scenarios:   powerCapped,
			Methods:     fourMethods(),
		},
	}
}

// CampaignByName resolves a builtin campaign name at the given sizing.
func CampaignByName(name string, scale ScaleSpec) (CampaignSpec, error) {
	for _, c := range BuiltinCampaigns(scale) {
		if c.Name == name {
			return c, nil
		}
	}
	return CampaignSpec{}, fmt.Errorf("scenario: unknown campaign %q (builtins: paper, theta-variants, theta-skew, fig3, fig567, fig10)", name)
}
