package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// ScenarioSpec declares one evaluation scenario: a workload mix (the
// Table III burst-buffer transform), an optional third power resource
// (§V-E), and the theta-variant axes that stress the base trace itself.
// The zero value of every variant field means "inherit from the campaign
// scale"; a spec with no variant overrides evaluates against the campaign's
// shared base materials.
type ScenarioSpec struct {
	// Name identifies the scenario; grid cells and reports carry it.
	Name string `json:"name"`
	// Family groups scenarios that share one trained model (a theta
	// variant of S4 belongs to family S4). Empty means the scenario is its
	// own family.
	Family string `json:"family,omitempty"`
	// Description is an optional free-form note; Describe() generates a
	// canonical one-liner from the fields when it is empty.
	Description string `json:"description,omitempty"`

	// Workload mix — Table III: with probability BBProb a job receives a
	// burst-buffer request resampled from the trace's request pool
	// restricted to [MinTB, MaxTB]; HalveNodes halves node demands (S5).
	BBProb     float64 `json:"bb_prob"`
	MinTB      float64 `json:"min_tb"`
	MaxTB      float64 `json:"max_tb"`
	HalveNodes bool    `json:"halve_nodes,omitempty"`

	// Power extends the system with the §V-E power resource: per-node
	// draws uniform in [MinW, MaxW] watts against a machine budget of
	// PowerBudgetKW (0 = the paper's 500 kW), scaled with the system.
	Power         bool    `json:"power,omitempty"`
	MinW          float64 `json:"min_w,omitempty"`
	MaxW          float64 `json:"max_w,omitempty"`
	PowerBudgetKW int     `json:"power_budget_kw,omitempty"`

	// Theta-variant axes. Div overrides the campaign's machine divisor
	// (the Div ladder); InterarrivalScale multiplies the base trace's mean
	// interarrival (values < 1 stress the queue); WalltimeNoiseSigma
	// perturbs user walltime estimates with multiplicative lognormal noise
	// of that sigma at evaluation time. Zero means "off / inherit".
	Div                int     `json:"div,omitempty"`
	InterarrivalScale  float64 `json:"interarrival_scale,omitempty"`
	WalltimeNoiseSigma float64 `json:"walltime_noise_sigma,omitempty"`

	// ZipfTheta/ZipfUsers label the workload's jobs with Zipf-skewed user
	// ownership: ZipfUsers > 0 enables the axis (theta 0 = uniform over that
	// population). Ownership is metadata — schedulers stay user-blind — so
	// the axis perturbs per-user accounting, never placement.
	ZipfTheta float64 `json:"zipf_theta,omitempty"`
	ZipfUsers int     `json:"zipf_users,omitempty"`
	// Burst modulates the base trace's arrivals with a two-state Markov
	// chain (see BurstSpec); nil means Poisson-with-diurnal-profile only.
	Burst *BurstSpec `json:"burst,omitempty"`
	// Trace replaces the synthetic base trace with an ingested SWF log: a
	// builtin trace name (workload.BuiltinTraces) or an SWF file path. The
	// T-family scenarios use this for cross-machine transfer evaluation.
	Trace string `json:"trace,omitempty"`
}

// Arity is the number of schedulable resources the scenario needs.
func (s ScenarioSpec) Arity() int {
	if s.Power {
		return 3
	}
	return 2
}

// FamilyName resolves the model-sharing family (Name when Family is empty).
func (s ScenarioSpec) FamilyName() string {
	if s.Family != "" {
		return s.Family
	}
	return s.Name
}

// IsVariant reports whether the spec overrides any theta-variant axis and
// therefore needs its own base materials instead of the campaign's.
func (s ScenarioSpec) IsVariant() bool {
	return s.Div > 0 ||
		(s.InterarrivalScale > 0 && s.InterarrivalScale != 1) ||
		s.WalltimeNoiseSigma > 0 ||
		s.ZipfUsers > 0 ||
		s.Burst != nil ||
		s.Trace != ""
}

// Mix converts the spec to the workload-layer Table III transform.
func (s ScenarioSpec) Mix() workload.Scenario {
	return workload.Scenario{
		Name:       s.Name,
		BBProb:     s.BBProb,
		MinTB:      s.MinTB,
		MaxTB:      s.MaxTB,
		HalveNodes: s.HalveNodes,
	}
}

// PowerMix converts a power spec to the workload-layer §V-E transform.
func (s ScenarioSpec) PowerMix() workload.PowerScenario {
	return workload.PowerScenario{Scenario: s.Mix(), MinW: s.MinW, MaxW: s.MaxW}
}

// Describe returns the Description, or a one-liner generated from the
// fields (the -list output is built from this, not a hand-written table).
func (s ScenarioSpec) Describe() string {
	if s.Description != "" {
		return s.Description
	}
	parts := []string{fmt.Sprintf("BB prob %.2f, requests %g-%g TB", s.BBProb, s.MinTB, s.MaxTB)}
	if s.HalveNodes {
		parts = append(parts, "halved node demands")
	}
	if s.Power {
		budget := s.PowerBudgetKW
		if budget == 0 {
			budget = workload.ThetaPowerBudgetKW
		}
		parts = append(parts, fmt.Sprintf("power %g-%g W/node under %d kW", s.MinW, s.MaxW, budget))
	}
	if s.Div > 0 {
		parts = append(parts, fmt.Sprintf("machine 1/%d", s.Div))
	}
	if s.InterarrivalScale > 0 && s.InterarrivalScale != 1 {
		parts = append(parts, fmt.Sprintf("interarrival x%s", trimFloat(s.InterarrivalScale)))
	}
	if s.WalltimeNoiseSigma > 0 {
		parts = append(parts, fmt.Sprintf("walltime noise sigma %s", trimFloat(s.WalltimeNoiseSigma)))
	}
	if s.ZipfUsers > 0 {
		parts = append(parts, fmt.Sprintf("zipf user skew theta %s over %d users", trimFloat(s.ZipfTheta), s.ZipfUsers))
	}
	if s.Burst != nil {
		parts = append(parts, s.Burst.Describe())
	}
	if s.Trace != "" {
		parts = append(parts, fmt.Sprintf("replays trace %s", s.Trace))
	}
	return strings.Join(parts, ", ")
}

// Validate rejects malformed specs with a field-naming error.
func (s ScenarioSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.BBProb < 0 || s.BBProb > 1 {
		return fmt.Errorf("scenario %s: bb_prob %g outside [0,1]", s.Name, s.BBProb)
	}
	if s.BBProb > 0 {
		if s.MinTB <= 0 {
			return fmt.Errorf("scenario %s: min_tb %g must be positive", s.Name, s.MinTB)
		}
		if s.MaxTB < s.MinTB {
			return fmt.Errorf("scenario %s: max_tb %g below min_tb %g", s.Name, s.MaxTB, s.MinTB)
		}
	}
	if s.Power {
		if s.MinW <= 0 {
			return fmt.Errorf("scenario %s: min_w %g must be positive on a power scenario", s.Name, s.MinW)
		}
		if s.MaxW < s.MinW {
			return fmt.Errorf("scenario %s: max_w %g below min_w %g", s.Name, s.MaxW, s.MinW)
		}
	} else if s.MinW != 0 || s.MaxW != 0 || s.PowerBudgetKW != 0 {
		return fmt.Errorf("scenario %s: power profile fields set without power=true", s.Name)
	}
	if s.PowerBudgetKW < 0 {
		return fmt.Errorf("scenario %s: power_budget_kw %d must be >= 0", s.Name, s.PowerBudgetKW)
	}
	if s.Div < 0 {
		return fmt.Errorf("scenario %s: div %d must be >= 0 (0 inherits the campaign scale)", s.Name, s.Div)
	}
	if s.InterarrivalScale < 0 {
		return fmt.Errorf("scenario %s: interarrival_scale %g must be >= 0", s.Name, s.InterarrivalScale)
	}
	if s.WalltimeNoiseSigma < 0 {
		return fmt.Errorf("scenario %s: walltime_noise_sigma %g must be >= 0", s.Name, s.WalltimeNoiseSigma)
	}
	if s.ZipfUsers < 0 {
		return fmt.Errorf("scenario %s: zipf_users %d must be >= 0 (0 disables the axis)", s.Name, s.ZipfUsers)
	}
	if s.ZipfTheta < 0 || math.IsNaN(s.ZipfTheta) || math.IsInf(s.ZipfTheta, 0) {
		return fmt.Errorf("scenario %s: zipf_theta %g must be a finite value >= 0", s.Name, s.ZipfTheta)
	}
	if s.ZipfTheta != 0 && s.ZipfUsers == 0 {
		return fmt.Errorf("scenario %s: zipf_theta set without zipf_users (the population size; the zipf variant syntax implies %d)",
			s.Name, workload.DefaultZipfUsers)
	}
	if s.Burst != nil {
		if s.Trace != "" {
			return fmt.Errorf("scenario %s: trace and burst are mutually exclusive (a replayed trace carries its own arrival process)", s.Name)
		}
		if err := s.Burst.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// MethodKind enumerates the §IV-D scheduling methods.
type MethodKind string

const (
	KindHeuristic MethodKind = "fcfs"
	KindOptimize  MethodKind = "optimization"
	KindScalarRL  MethodKind = "scalar-rl"
	KindMRSch     MethodKind = "mrsch"
)

// DisplayName is the paper's label for the kind.
func (k MethodKind) DisplayName() string {
	switch k {
	case KindHeuristic:
		return "Heuristic"
	case KindOptimize:
		return "Optimization"
	case KindScalarRL:
		return "Scalar RL"
	case KindMRSch:
		return "MRSch"
	}
	return string(k)
}

// Trained reports whether the kind needs a trained model.
func (k MethodKind) Trained() bool { return k == KindScalarRL || k == KindMRSch }

// Kinds lists the methods in the paper's plotting order.
func Kinds() []MethodKind {
	return []MethodKind{KindMRSch, KindOptimize, KindScalarRL, KindHeuristic}
}

// MethodSpec declares one scheduling method of a campaign.
type MethodSpec struct {
	Kind MethodKind `json:"kind"`
	// Label overrides the display name in reports (e.g. to distinguish two
	// mrsch entries with different models).
	Label string `json:"label,omitempty"`
	// Model is a weights file (cmd/mrsch-train output) loaded into an
	// untrained campaign-architecture agent; it is loaded once and reused
	// across every grid cell, of any seed or family, whose agent is built
	// alike (same system, window and flags). mrsch only.
	Model string `json:"model,omitempty"`
	// Train trains one model per scenario family in-process before the
	// grid cells fan out, then reuses it across that family's cells.
	// mrsch and scalar-rl only.
	Train bool `json:"train,omitempty"`
	// CNN selects the convolutional state module (Figure 3). mrsch only.
	CNN bool `json:"cnn,omitempty"`
}

// DisplayName is the method's report label.
func (m MethodSpec) DisplayName() string {
	if m.Label != "" {
		return m.Label
	}
	return m.Kind.DisplayName()
}

// Describe returns a generated one-liner for the method.
func (m MethodSpec) Describe() string {
	switch m.Kind {
	case KindHeuristic:
		return "FCFS with EASY backfilling (training-free)"
	case KindOptimize:
		return "the exact Pareto knee of each window's maximal packs (training-free)"
	case KindScalarRL:
		return "fixed-weight scalar policy-gradient RL (trained per scenario family)"
	case KindMRSch:
		return "the paper's DFP agent (trained per family, or loaded from a model file)"
	}
	return string(m.Kind)
}

// Validate rejects malformed method specs.
func (m MethodSpec) Validate() error {
	switch m.Kind {
	case KindHeuristic, KindOptimize, KindScalarRL, KindMRSch:
	default:
		return fmt.Errorf("scenario: unknown method kind %q (want %s, %s, %s, or %s)",
			m.Kind, KindHeuristic, KindOptimize, KindScalarRL, KindMRSch)
	}
	if m.Model != "" && m.Kind != KindMRSch {
		return fmt.Errorf("scenario: method %s: model files apply to %s only", m.Kind, KindMRSch)
	}
	if m.Train && !m.Kind.Trained() {
		return fmt.Errorf("scenario: method %s is training-free; drop train=true", m.Kind)
	}
	if m.Model != "" && m.Train {
		return fmt.Errorf("scenario: method %s: model and train are mutually exclusive", m.Kind)
	}
	if m.CNN && m.Kind != KindMRSch {
		return fmt.Errorf("scenario: method %s: cnn applies to %s only", m.Kind, KindMRSch)
	}
	return nil
}

// MethodByName resolves a method kind or display name ("fcfs" and
// "Heuristic" both work) to its spec.
func MethodByName(name string) (MethodSpec, error) {
	for _, k := range Kinds() {
		if name == string(k) || name == k.DisplayName() {
			return MethodSpec{Kind: k}, nil
		}
	}
	return MethodSpec{}, fmt.Errorf("scenario: unknown method %q", name)
}

// ScaleSpec is the serializable campaign sizing — the declarative form of
// experiments.Scale (runtime knobs like worker counts are not part of the
// spec; they are experiments.CampaignOptions, set from flags).
type ScaleSpec struct {
	Name string `json:"name"`
	// Div scales the Theta machine (nodes and burst buffer divided by Div).
	Div int `json:"div"`
	// TraceDuration (seconds) and MeanInterarrival shape the base trace.
	TraceDuration    float64 `json:"trace_duration"`
	MeanInterarrival float64 `json:"mean_interarrival"`
	// Window is W (the paper uses 10).
	Window int `json:"window"`
	// SetsPerKind and SetSize size the §III-D curriculum.
	SetsPerKind int `json:"sets_per_kind"`
	SetSize     int `json:"set_size"`
	// StepsPerEpisode is gradient steps after each training episode.
	StepsPerEpisode int `json:"steps_per_episode"`
	// EpsDecay is the per-episode exploration decay.
	EpsDecay float64 `json:"eps_decay"`
	// Seed roots all randomness.
	Seed int64 `json:"seed"`
	// Burst, when set, modulates the campaign's shared base trace — and the
	// training curriculum derived from it — with the two-state bursty
	// arrival chain, so models can be trained on bursty workloads rather
	// than only evaluated against them. Scenario-level burst overrides win
	// for that scenario's materials.
	Burst *BurstSpec `json:"burst,omitempty"`
	// Trace replaces the campaign's synthetic base trace with an ingested
	// SWF log (builtin trace name or file path). Mutually exclusive with
	// Burst: a replayed trace carries its own arrival process.
	Trace string `json:"trace,omitempty"`
}

// Validate rejects sizing that would silently generate a degenerate trace
// or curriculum.
func (s ScaleSpec) Validate() error {
	if s.Div <= 0 {
		return fmt.Errorf("scale %s: div %d must be positive", s.Name, s.Div)
	}
	if s.TraceDuration <= 0 {
		return fmt.Errorf("scale %s: trace_duration %g must be positive", s.Name, s.TraceDuration)
	}
	if s.MeanInterarrival <= 0 {
		return fmt.Errorf("scale %s: mean_interarrival %g must be positive", s.Name, s.MeanInterarrival)
	}
	if s.Window <= 0 {
		return fmt.Errorf("scale %s: window %d must be positive", s.Name, s.Window)
	}
	if s.SetsPerKind <= 0 {
		return fmt.Errorf("scale %s: sets_per_kind %d must be positive", s.Name, s.SetsPerKind)
	}
	if s.SetSize <= 0 {
		return fmt.Errorf("scale %s: set_size %d must be positive", s.Name, s.SetSize)
	}
	if s.StepsPerEpisode < 0 {
		return fmt.Errorf("scale %s: steps_per_episode %d must be >= 0", s.Name, s.StepsPerEpisode)
	}
	if s.EpsDecay <= 0 || s.EpsDecay > 1 {
		return fmt.Errorf("scale %s: eps_decay %g outside (0,1]", s.Name, s.EpsDecay)
	}
	if s.Burst != nil {
		if s.Trace != "" {
			return fmt.Errorf("scale %s: trace and burst are mutually exclusive (a replayed trace carries its own arrival process)", s.Name)
		}
		if err := s.Burst.Validate(); err != nil {
			return fmt.Errorf("scale %s: %w", s.Name, err)
		}
	}
	return nil
}

// trimFloat renders a float without trailing zeros ("0.5", "16").
func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
