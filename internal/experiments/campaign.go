package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rl"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// This file runs declarative campaigns (internal/scenario): the spec's
// scenario x method x seed axes expand into cells, per-cell base materials
// and per-family trained models resolve serially up front, and the cells
// then fan out across CampaignOptions.Workers goroutines
// (rollout.MapCollect) as independent evaluation episodes. Per-cell seeding
// derives from Cell.Index, so results are identical for every worker count.

// CellResult pairs one expanded campaign cell with its §IV-B metrics.
type CellResult struct {
	Cell   scenario.Cell
	Report metrics.Report
}

// CampaignOptions are the runtime knobs deliberately kept out of the
// serialized spec and out of Scale: how wide to fan out, the training mode,
// the durability knobs (model store and checkpoints) and telemetry. They are
// the one home of every value a run sets: OpenCampaign keeps them for its
// family models and Train takes them for a standalone run (mrsch-train).
type CampaignOptions struct {
	// Workers bounds how many campaign cells evaluate at once; 0 means
	// all CPU cores. It chooses speed only: no report, trained weight or
	// model-store name depends on it (a training rolls one episode out at
	// a time and a gradient step always sums the same two shards; see the
	// internal/rollout package doc for the determinism contract).
	Workers int
	// Pipelined overlaps episode collection with gradient steps
	// (rollout.Config.Pipelined): round k+1 rolls out against a versioned
	// weight snapshot while round k trains. Off by default — barrier mode is
	// the bitwise-reproducibility reference. Pipelined training is
	// deterministic but differs from barrier mode (a one-round policy lag);
	// see rollout's package doc, rules 6-8.
	Pipelined bool
	// ModelDir, when non-empty, is the content-addressed model store:
	// every in-process-trained family model is saved there under a name
	// derived from the scenario family and a hash of everything its
	// weights are a deterministic function of (method, family, base
	// materials, scale spec, training mode). A later
	// campaign whose key hashes to an existing file loads it instead of
	// retraining — re-running a finished campaign trains zero models.
	ModelDir string
	// CheckpointDir, when non-empty, makes every training run durable: the
	// full agent state (weights, optimizer moments, replay ring, epsilon and
	// rng cursors) is written atomically to a per-run file under the
	// directory at every round boundary (rollout.Config.Checkpoint, rules
	// 9-10 of the rollout package doc). The bespoke studies' runs are not
	// checkpointed (TrainRun).
	CheckpointDir string
	// CheckpointEvery throttles checkpoint writes to every Nth round
	// boundary (0 or 1 = every round). The final boundary always writes, so
	// a completed run's checkpoint is its final state; a crash between
	// throttled writes just replays up to N rounds on resume.
	CheckpointEvery int
	// Resume restarts each training run from its file under CheckpointDir
	// instead of episode zero — a preempted campaign continues every
	// partially trained family model from its last written boundary. A
	// resumed run is bitwise identical to an uninterrupted one for the same
	// (Seed, Pipelined) settings; a checkpoint written under other settings
	// is rejected loudly. With no file present the run starts
	// fresh (first launch of a preemptable job).
	Resume bool
	// OnCheckpoint, when non-nil, observes checkpoint traffic: action is
	// "save" after each round-boundary write and "resume" after a
	// successful restore, episodes the cumulative episode count.
	OnCheckpoint func(action string, episodes int)
	// OnModel, when non-nil, observes model resolution, once per model the
	// run holds (modelKey): action is "trained" (trained in-process this
	// run), "cached" (loaded from the ModelDir store), or "file" (loaded
	// from an explicit MethodSpec.Model path, once per distinct loaded agent
	// however many seeds and scenarios share it; family is the first
	// resolving cell's). path names the file involved ("" for in-process
	// training with no store).
	OnModel func(family, action, path string)
	// NoTrain forbids in-process training: every trained family model must
	// resolve from the ModelDir store or an explicit MethodSpec.Model file.
	// Distributed workers (internal/distrib) run with NoTrain set — the
	// coordinator resolves every family model exactly once before cells fan
	// out, so a cell retried on another worker can never retrain a model.
	NoTrain bool
	// Metrics/Journal wire telemetry through to the training harness
	// (rollout.Config.Metrics/Journal). Observe-only (rollout doc rule 11);
	// excluded from model-store keys and checkpoints.
	Metrics *telemetry.Registry
	Journal *telemetry.Journal
}

// CampaignRun holds the resolved state shared by a campaign's cells. All
// maps are populated serially (ResolveCell) before cells fan out and are
// read-only afterwards. RunCampaign drives the whole lifecycle in-process;
// the distributed runner (internal/distrib) opens a run per process and
// resolves cells lazily as they are assigned. The caches are keyed by base
// materials and by modelKey, never by campaign, so one run can serve the
// cells of several equally sized campaigns (Run) and the bespoke studies
// (FamilyModel): mrsch-exp -fig all trains each family once, and a model
// file loads once however many replicate seeds read it. A run keeps only
// what its cells evaluate (the package doc's "What a run keeps"):
// evaluation-only materials, and MRSch models as read-only core.Model values.
type CampaignRun struct {
	spec      scenario.CampaignSpec
	opt       CampaignOptions
	baseScale Scale
	materials map[string]*Materials // evaluation-only, by materialsKey
	models    map[string]heldModel  // by modelKey
}

// heldModel is a resolved model as a run's cells read it: MRSch's trained
// model or a Scalar RL scheduler.
type heldModel struct {
	mrsch    *core.Model
	scalarRL *rl.Scheduler
}

// OpenCampaign validates the spec and prepares a run whose cells can be
// resolved and evaluated individually. Nothing heavy happens here: base
// materials and family models resolve on the first ResolveCell that needs
// them.
func OpenCampaign(spec scenario.CampaignSpec, opt CampaignOptions) (*CampaignRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if opt.ModelDir != "" {
		if err := os.MkdirAll(opt.ModelDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: campaign %s: model store: %w", spec.Name, err)
		}
	}
	return &CampaignRun{
		spec:      spec,
		opt:       opt,
		baseScale: ScaleFromSpec(spec.Scale),
		materials: make(map[string]*Materials),
		models:    make(map[string]heldModel),
	}, nil
}

// Cells returns the run's deterministic grid expansion.
func (r *CampaignRun) Cells() []scenario.Cell { return r.spec.Expand() }

// ResolveCell prepares everything the cell's evaluation needs: its base
// materials and, for trained methods, its family model (trained in-process,
// loaded from the ModelDir store, or loaded from an explicit weights file
// — see CampaignOptions.NoTrain). Resolution is cached, so re-resolving a
// cell or resolving a sibling of the same family is free. Not safe to call
// concurrently: callers resolve serially, then fan evaluation out.
func (r *CampaignRun) ResolveCell(cell scenario.Cell) error {
	if _, err := r.resolveMaterials(cell); err != nil {
		return fmt.Errorf("experiments: %s: %w", cell.Label(), err)
	}
	if err := r.resolveModel(cell); err != nil {
		return fmt.Errorf("experiments: %s: %w", cell.Label(), err)
	}
	return nil
}

// RunCampaign validates and expands the spec, resolves variant materials
// and family models, and evaluates every cell, returning results in
// expansion order. Cell failures don't abort the rest of the grid; the
// returned error names every failed cell.
func RunCampaign(spec scenario.CampaignSpec, opt CampaignOptions) ([]CellResult, error) {
	run, err := OpenCampaign(spec, opt)
	if err != nil {
		return nil, err
	}
	return run.Run(spec)
}

// Run is RunCampaign on an open run: the grid's cells resolve against —
// and add to — the run's caches, so a family model an earlier grid trained
// is not trained again. The spec must be sized like the run's own: base
// materials and model-store keys derive from the scale.
func (r *CampaignRun) Run(spec scenario.CampaignSpec) ([]CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if !reflect.DeepEqual(spec.Scale, r.spec.Scale) {
		return nil, fmt.Errorf("experiments: campaign %s is sized differently from campaign %s, whose run it was given", spec.Name, r.spec.Name)
	}
	cells := spec.Expand()
	for _, cell := range cells {
		if err := r.ResolveCell(cell); err != nil {
			return nil, err
		}
	}
	results, errs := rollout.MapCollect(r.opt.Workers, cells, func(_, _ int, cell scenario.Cell) (CellResult, error) {
		return r.EvalCell(cell)
	})
	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", cells[i].Label(), err))
		}
	}
	if failed != nil {
		return results, fmt.Errorf("experiments: campaign %s: %d cell(s) failed: %s",
			spec.Name, len(failed), strings.Join(failed, "; "))
	}
	return results, nil
}

// FamilyModel returns the run's MLP MRSch model for a builtin scenario's
// family, with the run's evaluation-only materials for the base trace it was
// trained on — the model the scenario's mrsch cells act through, resolved
// like theirs (cached, from the store, or trained now). It is how the
// studies that are not grids (Figures 8 and 9, the goal ablation) reach the
// models the figure campaigns trained. The model is the run's and read-only:
// a study reads it through an evaluator of its own, and one that varies it
// copies the struct first, as AblationGoal does for FixedGoal. The materials
// build the scenario's test workload; they train nothing.
func (r *CampaignRun) FamilyModel(name string) (*core.Model, *Materials, error) {
	sp, err := scenario.ByName(name)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	cell := scenario.Cell{Scenario: sp, Method: scenario.MethodSpec{Kind: scenario.KindMRSch, Train: true}}
	if err := r.ResolveCell(cell); err != nil {
		return nil, nil, err
	}
	return r.models[r.modelKey(cell)].mrsch, r.materialsOf(cell), nil
}

// Policy resolves the cell and returns the scheduling policy it is
// evaluated under, for a caller that replays its own jobs through it
// (mrsch-sim -trace). EvalCell builds the same policy per evaluation.
func (r *CampaignRun) Policy(cell scenario.Cell) (*sched.WindowPolicy, error) {
	if err := r.ResolveCell(cell); err != nil {
		return nil, err
	}
	return r.cellPolicy(r.materialsOf(cell), cell)
}

// ScaleForSpec folds a scenario's base-trace overrides — div, interarrival,
// burst, trace — into a scale: the single place the spec axes become
// generator inputs, shared by the campaign runner and the cmd binaries'
// standalone evaluation paths. Evaluation-side axes (walltime noise, zipf
// ownership) don't touch the scale; Materials.WorkloadSpec applies them.
func ScaleForSpec(sc Scale, sp scenario.ScenarioSpec) Scale {
	if sp.Div > 0 {
		sc.Div = sp.Div
	}
	if sp.InterarrivalScale > 0 && sp.InterarrivalScale != 1 {
		sc.MeanInterarrival *= sp.InterarrivalScale
	}
	if sp.Burst != nil {
		sc.Burst = sp.Burst
	}
	if sp.Trace != "" {
		sc.Trace = sp.Trace
	}
	return sc
}

// PrepareFor prepares the materials a scenario evaluates against: Prepare
// at ScaleForSpec's folded scale, with the interarrival factor recorded so
// WorkloadSpec's checkSpec accepts the spec it was built for.
func PrepareFor(sc Scale, sp scenario.ScenarioSpec) (*Materials, error) {
	m, err := Prepare(ScaleForSpec(sc, sp))
	if err != nil {
		return nil, err
	}
	if sp.InterarrivalScale > 0 && sp.InterarrivalScale != 1 {
		m.InterarrivalScale = sp.InterarrivalScale
	}
	return m, nil
}

// replicateScale is the campaign scale at the cell's replicate seed: what
// the cell's materials are prepared from (PrepareFor), before the
// scenario's base-trace overrides fold in.
func (r *CampaignRun) replicateScale(cell scenario.Cell) Scale {
	sc := r.baseScale
	if cell.Seed != 0 {
		sc.Seed = cell.Seed
	}
	return sc
}

// materialsKeyOf identifies the cell's base materials: the key of its
// replicate scale with the scenario's base-trace overrides applied.
func (r *CampaignRun) materialsKeyOf(cell scenario.Cell) string {
	return materialsKey(ScaleForSpec(r.replicateScale(cell), cell.Scenario))
}

// materialsKey identifies one set of base materials. The burst and trace
// segments are conditional so every pre-existing key is unchanged.
func materialsKey(sc Scale) string {
	key := fmt.Sprintf("div=%d|ia=%g|seed=%d", sc.Div, sc.MeanInterarrival, sc.Seed)
	if sc.Burst != nil {
		key += fmt.Sprintf("|burst=%gx%g@%g", sc.Burst.Factor, sc.Burst.Frac, sc.Burst.Dwell)
	}
	if sc.Trace != "" {
		key += "|trace=" + sc.Trace
	}
	return key
}

// resolveMaterials prepares the cell's base materials and caches their
// evaluation-only part. Called serially before the fan-out; EvalCell only
// reads the cache.
func (r *CampaignRun) resolveMaterials(cell scenario.Cell) (*Materials, error) {
	key := r.materialsKeyOf(cell)
	if m, ok := r.materials[key]; ok {
		return m, nil
	}
	full, err := r.trainingMaterials(cell)
	if err != nil {
		return nil, err
	}
	m := full.evaluationOnly()
	r.materials[key] = m
	return m, nil
}

// trainingMaterials prepares the cell's full base materials afresh, for a
// training that drops them when it returns. Prepare is deterministic, so
// they are the materials the cached evaluation-only ones were cut from.
func (r *CampaignRun) trainingMaterials(cell scenario.Cell) (*Materials, error) {
	return PrepareFor(r.replicateScale(cell), cell.Scenario)
}

func (r *CampaignRun) materialsOf(cell scenario.Cell) *Materials {
	return r.materials[r.materialsKeyOf(cell)]
}

// baseMaterials returns the evaluation-only materials of the campaign scale
// itself — what a scenario without base-trace overrides evaluates against,
// and what the bespoke studies replay on. A study that trains takes full
// ones from trainingMaterials(scenario.Cell{}).
func (r *CampaignRun) baseMaterials() (*Materials, error) {
	return r.resolveMaterials(scenario.Cell{})
}

// modelKey identifies one resolved model, by what its weights and its agent
// are a function of. A model trained in-process is shared by every cell whose
// method kind, scenario family, CNN and power flags and base materials match
// (the key storePath hashes). A model loaded from a file is shared by every
// cell whose agent is built alike: the file, the method kind, the CNN and
// power flags, the system SystemFor returns (a power_budget_kw override sizes
// the state encoding) and the window. The replicate seed, the base materials
// and the family do not enter it: the agent reads none of them but its rng
// seed, and an evaluator's pick does not depend on that (cellPolicy). The
// cell's materials must be resolved.
func (r *CampaignRun) modelKey(cell scenario.Cell) string {
	sp, method := cell.Scenario, cell.Method
	if method.Model != "" {
		m := r.materialsOf(cell)
		sys := m.SystemFor(sp)
		return fmt.Sprintf("%s|cnn=%v|power=%v|file=%s|sys=%s%v%v|window=%d",
			method.Kind, method.CNN, sp.Power, method.Model,
			sys.Name, sys.Resources, sys.Capacities, m.Scale.Window)
	}
	return fmt.Sprintf("%s|%s|cnn=%v|power=%v|file=|%s",
		method.Kind, sp.FamilyName(), method.CNN, sp.Power, r.materialsKeyOf(cell))
}

// resolveModel trains or loads the cell's model if its method needs one and
// the run does not hold it under the cell's modelKey yet: a family trains
// once per base materials, on full materials prepared for it and dropped
// after, and a model file loads once per distinct agent. Called serially
// before the fan-out: training itself parallelizes across rollout workers,
// and evaluation cells only ever read a model: an MRSch file loads as one
// (core.LoadModel), and a trained agent is kept as its model (core.MRSch.Model)
// once the store holds it, so nothing of its training outlives the training.
func (r *CampaignRun) resolveModel(cell scenario.Cell) error {
	method := cell.Method
	if !method.Kind.Trained() {
		return nil
	}
	if method.Model == "" && !method.Train {
		return fmt.Errorf("method %s needs a trained model: set train=true or reference a model file", method.Kind)
	}
	sp := cell.Scenario
	if sp.Power && sp.PowerBudgetKW != 0 && method.Train {
		return fmt.Errorf("scenario %s: train=true with a power_budget_kw override is unsupported (the state encoding is sized by the budget); train at the default budget and load the model file", sp.Name)
	}
	key := r.modelKey(cell)
	if _, ok := r.models[key]; ok {
		return nil
	}
	m := r.materialsOf(cell)
	family := sp.FamilyName()
	run := TrainRun{Kind: method.Kind, Family: family, Power: sp.Power, CNN: method.CNN}
	stored := r.storePath(cell)
	path, action := method.Model, "file"
	if path == "" && stored != "" {
		if _, err := os.Stat(stored); err == nil {
			path, action = stored, "cached"
		}
	}
	var held heldModel
	var err error
	switch {
	case path != "":
		held, err = m.loadModel(run, m.SystemFor(sp), path)
	case r.opt.NoTrain:
		return errNoTrain(family, stored)
	default:
		path, action = stored, "trained"
		var full *Materials
		var t Trained
		if full, err = r.trainingMaterials(cell); err == nil {
			t, err = Train(full, run, r.opt)
		}
		if err == nil && stored != "" {
			err = storeModel(stored, t.save)
		}
		if held.scalarRL = t.ScalarRL; err == nil && t.MRSch != nil {
			held.mrsch = t.MRSch.Model()
		}
	}
	if err != nil {
		return fmt.Errorf("model for family %s: %w", family, err)
	}
	if r.opt.OnModel != nil {
		r.opt.OnModel(family, action, path)
	}
	r.models[key] = held
	return nil
}

// storePath returns the content-addressed model-store path for the cell's
// trained family model, or "" when the store is disabled or the method
// references an explicit weights file (which IS its own store). The name
// hashes everything the trained weights are a deterministic function of:
// the model key (method kind, family, CNN/power flags, base materials),
// the full scale spec, and the training mode — so a campaign re-run under
// identical settings maps to the same file, and a run under different
// settings cannot silently load weights trained another way. The leading
// version moves whenever training itself changes bits, the model file its
// layout, or the key its content (v2: pipelined trainings sample one replay
// ring, not one ring per rollout worker; v3: model files are sealed
// sections, not gob streams; v4: the rollout worker count left the key), so
// a store filled before retrains once and -prune removes what it left.
func (r *CampaignRun) storePath(cell scenario.Cell) string {
	if r.opt.ModelDir == "" || cell.Method.Model != "" {
		return ""
	}
	spec, err := json.Marshal(r.spec.Scale)
	if err != nil {
		return "" // unreachable: ScaleSpec marshals; disable the store rather than mis-key it
	}
	content := fmt.Sprintf("v4|%s|scale=%s|pipelined=%v", r.modelKey(cell), spec, r.opt.Pipelined)
	name := fmt.Sprintf("%s-%s-%s.model",
		cell.Method.Kind, sanitizeName(cell.Scenario.FamilyName()), modelStoreKeyHash(content))
	return filepath.Join(r.opt.ModelDir, name)
}

// errNoTrain names a family model a NoTrain run could not resolve. The
// store path is part of the message: on a distributed worker it tells the
// operator whether the store was never populated or the worker is pointed
// at the wrong directory.
func errNoTrain(family, stored string) error {
	where := "no model store configured"
	if stored != "" {
		where = fmt.Sprintf("store file %s does not exist", stored)
	}
	return fmt.Errorf("family %s needs a trained model but in-process training is disabled (NoTrain): %s", family, where)
}

// storeModel atomically writes a trained model's weights into the store.
func storeModel(path string, save func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("model store: %w", err)
	}
	return nil
}

// loadModel reads saved weights (cmd/mrsch-train output or a model-store
// entry) for the run's agent on sys, built as Train builds it so the weights
// fit: an MRSch file into a model (core.LoadModel), which builds no trainable
// agent, a Scalar RL file into the scheduler newAgent builds.
func (m *Materials) loadModel(run TrainRun, sys cluster.Config, path string) (heldModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return heldModel{}, err
	}
	defer f.Close()
	var held heldModel
	if run.Kind == scenario.KindMRSch {
		held.mrsch, err = core.LoadModel(sys, m.Scale.runOptions(run), f)
	} else {
		var t Trained
		if t, _, err = m.Scale.newAgent(run, sys); err == nil {
			held.scalarRL, err = t.ScalarRL, t.ScalarRL.Load(f)
		}
	}
	if err != nil {
		return heldModel{}, fmt.Errorf("loading %s: %w", path, err)
	}
	return held, nil
}

// EvalCell runs one resolved grid cell as an independent evaluation
// episode. The cell must have been ResolveCell'd first; evaluation reads
// only read-only models and cached materials, so distinct cells may be
// evaluated concurrently (Run fans them over the rollout pool, a
// distributed worker runs them one at a time). Error results still carry
// the cell (with a zero Report), so partial campaign renderings label failed
// cells by name instead of collapsing them into one anonymous row.
func (r *CampaignRun) EvalCell(cell scenario.Cell) (CellResult, error) {
	failed := CellResult{Cell: cell}
	m := r.materialsOf(cell)
	if m == nil {
		return failed, fmt.Errorf("no materials prepared for scale %q: EvalCell needs a ResolveCell first", r.materialsKeyOf(cell))
	}
	sp := cell.Scenario
	sys := m.SystemFor(sp)
	jobs, err := m.WorkloadSpec(sp)
	if err != nil {
		return failed, err
	}
	policy, err := r.cellPolicy(m, cell)
	if err != nil {
		return failed, err
	}
	// The workload was built for this cell and nobody else holds it, so the
	// simulator runs on it directly.
	rep, err := evaluateOwned(sys, policy, jobs, cell.Method.DisplayName(), sp.Name, sys.ResourceIndex("power_kw"))
	if err != nil {
		return failed, err
	}
	return CellResult{Cell: cell, Report: rep}, nil
}

// failed reports a zero-value report: the cell failed (the caller has the
// per-cell error) or was never run.
func (r CellResult) failed() bool { return len(r.Report.Utilization) < 2 }

// cellPolicy builds the cell's scheduling policy — the one place a method
// kind becomes a policy. Heuristic is FCFS and Optimization the exact Pareto
// knee (sched.Pareto), both deterministic; MRSch acts greedily (epsilon 0,
// so it needs no seed) and Scalar RL samples its policy from a stream seeded
// Seed+9000+Index, each through an evaluator, an unrecorded read-only actor
// clone of the cell's model (modelKey), so cells sharing one model
// may run concurrently. The MRSch evaluator skips its model at every instant
// where no waiting job fits (core.MRSchActor.Pick); its schedule is the
// agent's own greedy one. All seeding derives from Cell.Index.
func (r *CampaignRun) cellPolicy(m *Materials, cell scenario.Cell) (*sched.WindowPolicy, error) {
	switch cell.Method.Kind {
	case scenario.KindHeuristic:
		return FCFSPolicy(m.Scale.Window), nil
	case scenario.KindOptimize:
		return sched.NewWindowPolicy(sched.Pareto{}, m.Scale.Window), nil
	case scenario.KindMRSch:
		return r.models[r.modelKey(cell)].mrsch.Evaluator().Policy(), nil
	case scenario.KindScalarRL:
		return r.models[r.modelKey(cell)].scalarRL.Evaluator(m.Scale.Seed + 9000 + int64(cell.Index)).Policy(), nil
	}
	return nil, fmt.Errorf("unknown method kind %q", cell.Method.Kind)
}

// FprintCells renders campaign results as one table row per cell and —
// when the campaign replicates cells across a seed axis — appends a
// mean/spread aggregation across the replicates of each (scenario, method)
// pair (the per-cell reports carry everything needed; see fprintSeedAggregate).
func FprintCells(w io.Writer, name string, results []CellResult) {
	fmt.Fprintf(w, "Campaign %s — scenario x method x seed grid (episode per cell):\n", name)
	fmt.Fprintf(w, "  %-16s %-13s %-5s %9s %9s %8s %9s\n",
		"scenario", "method", "res", "util[0]", "util[1]", "wait(h)", "slowdown")
	for _, r := range results {
		name := r.Cell.Scenario.Name
		if r.Cell.Seed != 0 {
			name = fmt.Sprintf("%s#%d", name, r.Cell.Seed)
		}
		if r.failed() {
			fmt.Fprintf(w, "  %-16s %-13s %-5d %s\n",
				name, r.Cell.Method.DisplayName(), r.Cell.Scenario.Arity(), "(failed)")
			continue
		}
		fmt.Fprintf(w, "  %-16s %-13s %-5d %9.3f %9.3f %8.2f %9.2f\n",
			name, r.Cell.Method.DisplayName(), r.Cell.Scenario.Arity(),
			r.Report.Utilization[0], r.Report.Utilization[1],
			r.Report.AvgWaitHours(), r.Report.AvgSlowdown)
	}
	fprintSeedAggregate(w, results)
}

// fprintSeedAggregate renders the seed-axis summary: one row per
// (scenario, method) pair that has more than one seed replicate, showing
// mean ± sample standard deviation of each §IV-B metric across the
// replicates that produced a report. Campaigns without a seed axis (every
// pair appears once) print nothing extra.
func fprintSeedAggregate(w io.Writer, results []CellResult) {
	type groupKey struct{ scenario, method string }
	var order []groupKey
	total := make(map[groupKey]int)
	reports := make(map[groupKey][]metrics.Report)
	replicated := false
	for _, r := range results {
		k := groupKey{r.Cell.Scenario.Name, r.Cell.Method.DisplayName()}
		if total[k] == 0 {
			order = append(order, k)
		}
		total[k]++
		if total[k] > 1 {
			replicated = true
		}
		if !r.failed() {
			reports[k] = append(reports[k], r.Report)
		}
	}
	if !replicated {
		return
	}
	fmt.Fprintf(w, "\n  Across seed replicates (mean±sd):\n")
	fmt.Fprintf(w, "  %-16s %-13s %-5s %15s %15s %15s %15s\n",
		"scenario", "method", "n", "util[0]", "util[1]", "wait(h)", "slowdown")
	for _, k := range order {
		if total[k] < 2 {
			continue
		}
		reps := reports[k]
		if len(reps) == 0 {
			fmt.Fprintf(w, "  %-16s %-13s %-5d %s\n", k.scenario, k.method, total[k], "(all replicates failed)")
			continue
		}
		metric := func(f func(metrics.Report) float64) string {
			mean, sd := meanSpread(reps, f)
			return fmt.Sprintf("%8.3f±%-6.3f", mean, sd)
		}
		fmt.Fprintf(w, "  %-16s %-13s %-5d %s %s %s %s\n",
			k.scenario, k.method, len(reps),
			metric(func(r metrics.Report) float64 { return r.Utilization[0] }),
			metric(func(r metrics.Report) float64 { return r.Utilization[1] }),
			metric(metrics.Report.AvgWaitHours),
			metric(func(r metrics.Report) float64 { return r.AvgSlowdown }))
	}
}

// meanSpread computes the mean and sample standard deviation (0 for a
// single replicate) of f over the reports.
func meanSpread(reps []metrics.Report, f func(metrics.Report) float64) (mean, sd float64) {
	for _, r := range reps {
		mean += f(r)
	}
	mean /= float64(len(reps))
	if len(reps) < 2 {
		return mean, 0
	}
	for _, r := range reps {
		d := f(r) - mean
		sd += d * d
	}
	return mean, math.Sqrt(sd / float64(len(reps)-1))
}
