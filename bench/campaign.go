package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nn/kernel"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
)

//go:embed specs/bench-campaign.json
var campaignSpecJSON []byte

//go:embed golden.json
var goldenJSON []byte

// golden holds the seed-1 report digests of the campaign cells, by cell
// label. FCFS replays are pure integer/float arithmetic and have one golden;
// mrsch cells depend on the kernel set (cross-set results agree to 1e-12,
// not bitwise), so theirs are keyed by kernel.Name().
type golden struct {
	FCFS  map[string]string            `json:"fcfs"`
	MRSch map[string]map[string]string `json:"mrsch"`
}

// campaignSpec is the committed spec — the seed-1 instance — moved to the
// run's seed: the scale seed and every replicate seed shift by seed-1.
// -smoke shrinks the sizing to tiny and keeps two replicates.
func campaignSpec(c config) (scenario.CampaignSpec, error) {
	spec, err := scenario.Load(bytes.NewReader(campaignSpecJSON))
	if err != nil {
		return spec, fmt.Errorf("bench/specs/bench-campaign.json: %w", err)
	}
	if c.smoke {
		spec.Scale = scenario.TinyScaleSpec()
		spec.Seeds = spec.Seeds[:2]
	}
	spec.Scale.Seed += c.seed - 1
	for i := range spec.Seeds {
		spec.Seeds[i] += c.seed - 1
	}
	return spec, nil
}

// digest is the identity of a report: every float bit shows in its JSON.
func digest(rep metrics.Report) string {
	data, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a Report is plain numbers and strings
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:16])
}

// campaign is campaign-fcfs or campaign-mrsch: the same spec and the same
// set-up — the S4 model trained and saved where the spec's mrsch method loads
// it, every cell of both methods resolved — and one op is one evaluation of
// all the cells of one method. Per-cell cost depends heavily on the trace
// (queue depth enters quadratically), so the grid replicates every scenario
// over several trace seeds and the op pools them: one cell's time varies by
// 12% from seed to seed, the pass by a few. Every report must digest to what
// the first pass produced and, at seed 1, to the committed golden.
type campaign struct {
	cfg  config
	kind scenario.MethodKind

	spec  scenario.CampaignSpec
	agent *core.MRSch // the model the mrsch cells load, as trained
	run   *experiments.CampaignRun
	cells []scenario.Cell
	want  []string
}

func (c *campaign) setup() error {
	var err error
	if c.spec, err = campaignSpec(c.cfg); err != nil {
		return err
	}
	base, err := experiments.Prepare(experiments.ScaleFromSpec(c.spec.Scale))
	if err != nil {
		return err
	}
	if c.agent, _, err = experiments.TrainMRSch(base, "S4", false); err != nil {
		return err
	}
	if err := os.MkdirAll(c.cfg.outDir, 0o755); err != nil {
		return err
	}
	var weights bytes.Buffer
	if err := c.agent.Save(&weights); err != nil {
		return err
	}
	for i, method := range c.spec.Methods {
		if method.Model == "" {
			continue
		}
		path := filepath.Join(c.cfg.outDir, method.Model)
		if err := os.WriteFile(path, weights.Bytes(), 0o644); err != nil {
			return err
		}
		c.spec.Methods[i].Model = path
	}

	if c.run, err = experiments.OpenCampaign(c.spec, experiments.CampaignOptions{Workers: 1}); err != nil {
		return err
	}
	c.cells = c.cells[:0]
	for _, cell := range c.run.Cells() {
		if err := c.run.ResolveCell(cell); err != nil {
			return err
		}
		if cell.Method.Kind == c.kind {
			c.cells = append(c.cells, cell)
		}
	}
	want, err := c.goldenDigests()
	if err != nil {
		return err
	}
	c.want = make([]string, len(c.cells))
	for i, cell := range c.cells { // warm-up pass, and the first-pass digests
		res, err := c.run.EvalCell(cell)
		if err != nil {
			return err
		}
		c.want[i] = digest(res.Report)
		if g, ok := want[cell.Label()]; ok {
			// The golden is the expectation where there is one: if the
			// first pass disagrees with it, every op fails its check.
			c.want[i] = g
		}
	}
	return nil
}

// goldenDigests returns the committed digests that apply to this run, by
// cell label; none off seed 1, under -smoke, or (with a note in the log) for
// an mrsch run on a kernel set without an entry.
func (c *campaign) goldenDigests() (map[string]string, error) {
	if c.cfg.seed != 1 || c.cfg.smoke {
		return nil, nil
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	if c.kind == scenario.KindHeuristic {
		return g.FCFS, nil
	}
	set, ok := g.MRSch[kernel.Name()]
	if !ok {
		fmt.Fprintf(c.cfg.log, "%s: golden.json has no mrsch digests for kernel set %q: checking against the first pass only\n", c.cfg.workload, kernel.Name())
	}
	return set, nil
}

func (c *campaign) teardown() { c.run, c.agent = nil, nil }

func (c *campaign) cycle() int { return 1 }

func (c *campaign) op(int) error {
	for i, cell := range c.cells {
		res, err := c.run.EvalCell(cell)
		if err != nil {
			return err
		}
		if d := digest(res.Report); d != c.want[i] {
			return fmt.Errorf("cell %s: report digest %s, want %s", cell.Label(), d, c.want[i])
		}
	}
	return nil
}

// timedPicker is the sched.Picker wrapper of a traced replica: one span per
// decision, child of the simulator run that asked.
type timedPicker struct {
	inner     sched.Picker
	rec       *recorder
	name      string
	parent    int
	op        int
	decisions int
}

func (p *timedPicker) Pick(ctx *sched.PickContext) int {
	t0 := time.Now()
	idx := p.inner.Pick(ctx)
	p.rec.add(p.name, p.parent, p.op, t0, time.Now())
	p.decisions++
	return idx
}

// replica re-runs campaign cells from the public pieces EvalCell is made of,
// with a span around each: the cell's materials, workload materialisation,
// job cloning, the simulator under a timed picker, and metrics collection.
// mrsch cells act through the in-memory model whose saved weights the
// campaign's cells loaded.
type replica struct {
	sc        experiments.Scale
	agent     *core.MRSch
	rec       *recorder
	materials map[int64]*experiments.Materials // by trace seed
}

// resolve prepares (once) the base materials the cell evaluates against. The
// committed grid varies only evaluation-side axes (wtn, zipf), so the trace
// seed alone identifies the materials.
func (r *replica) resolve(cell scenario.Cell) (*experiments.Materials, error) {
	if m, ok := r.materials[cell.Seed]; ok {
		return m, nil
	}
	sc := r.sc
	if cell.Seed != 0 {
		sc.Seed = cell.Seed
	}
	m, err := experiments.PrepareFor(sc, cell.Scenario)
	if err != nil {
		return nil, err
	}
	r.materials[cell.Seed] = m
	return m, nil
}

// cell runs one replica cell as op, naming its per-decision spans pickSpan,
// and returns its report and decision count.
func (r *replica) cell(op int, cell scenario.Cell, pickSpan string) (metrics.Report, int, error) {
	m, err := r.resolve(cell)
	if err != nil {
		return metrics.Report{}, 0, err
	}
	sp := cell.Scenario
	sys := m.SystemFor(sp)
	root := r.rec.open("experiments.cell", -1, op)
	defer r.rec.close(root)

	var jobs []*job.Job
	r.rec.time("workload.materialize", root, op, func() { jobs, err = m.WorkloadSpec(sp) })
	if err != nil {
		return metrics.Report{}, 0, err
	}

	var policy *sched.WindowPolicy
	switch cell.Method.Kind {
	case scenario.KindHeuristic:
		policy = experiments.FCFSPolicy(m.Scale.Window)
	case scenario.KindOptimize:
		policy = sched.NewWindowPolicy(experiments.NewGA(m.Scale.Seed+7000+int64(cell.Index)), m.Scale.Window)
	case scenario.KindMRSch:
		actor, _ := r.agent.Actor()
		actor.Reset(m.Scale.Seed+9000+int64(cell.Index), 0)
		policy = actor.Policy()
	default:
		return metrics.Report{}, 0, fmt.Errorf("replica: no policy for method %s", cell.Method.Kind)
	}

	var clones []*job.Job
	r.rec.time("job.clone", root, op, func() { clones = job.CloneAll(jobs) })

	run := r.rec.open("sim.run", root, op)
	picker := &timedPicker{inner: policy.Picker, rec: r.rec, name: pickSpan, parent: run, op: op}
	policy.Picker = picker
	s := sim.New(sys, policy)
	if err = s.Load(clones); err == nil {
		err = s.Run()
	}
	r.rec.close(run)
	if err != nil {
		return metrics.Report{}, 0, err
	}

	var rep metrics.Report
	r.rec.time("metrics.collect", root, op, func() {
		rep = metrics.Collect(cell.Method.DisplayName(), sp.Name, s, sys.ResourceIndex("power_kw"))
	})
	return rep, picker.decisions, nil
}

func (c *campaign) trace(rec *recorder, ref window) (map[string]float64, error) {
	sc := experiments.ScaleFromSpec(c.spec.Scale)
	rep := &replica{sc: sc, agent: c.agent, rec: rec, materials: map[int64]*experiments.Materials{}}
	for _, cell := range c.cells { // replica set-up, outside the traced passes
		if _, err := rep.resolve(cell); err != nil {
			return nil, err
		}
	}

	var passUs []float64
	var decisions, jobs float64
	for op := 0; op < traceCycles; op++ {
		rec.attempted++
		faithful := true
		decisions, jobs = 0, 0
		t0 := time.Now()
		for i, cell := range c.cells {
			report, picks, err := rep.cell(op, cell, "sched.pick")
			// Faithful replica: its report is EvalCell's, bit for bit.
			if err != nil || digest(report) != c.want[i] {
				faithful = false
				fmt.Fprintf(c.cfg.log, "%s: replica of %s differs from EvalCell (err %v)\n", c.cfg.workload, cell.Label(), err)
			}
			decisions += float64(picks)
			jobs += float64(report.Jobs)
		}
		if !faithful {
			rec.failed++
			continue
		}
		passUs = append(passUs, micros(int64(time.Since(t0))))
		if op == 0 {
			// The first pass tells how many spans a pass records (one per
			// decision); the later passes then record without reallocating.
			rec.reserve((traceCycles - 1) * len(rec.spans))
		}
	}
	if len(passUs) == 0 {
		return nil, fmt.Errorf("no replica pass matched EvalCell")
	}

	cells := float64(len(c.cells))
	layers := map[string]float64{
		"workload.materialize_us":      median(rec.durationsUs("workload.materialize")),
		"job.clone_us":                 median(rec.durationsUs("job.clone")),
		"sim.run_us":                   median(rec.durationsUs("sim.run")),
		"sim.self_us_per_job":          sum(rec.selfUs("sim.run")) / (float64(rec.attempted) * jobs),
		"sim.jobs_per_cell":            jobs / cells,
		"sim.allocs_per_job":           float64(ref.mem1.Mallocs-ref.mem0.Mallocs) / (float64(ref.attempted) * jobs),
		"metrics.collect_us":           median(rec.durationsUs("metrics.collect")),
		"experiments.cell_overhead_us": median(rec.selfUs("experiments.cell")),
		"sched.pick_us":                median(rec.durationsUs("sched.pick")),
		"sched.decisions_per_cell":     decisions / cells,
		"trace.overhead_ratio":         lowest(passUs) / ref.p50(), // like for like: the least disturbed pass of each
	}

	base := c.cells[0] // plain S4 at the run's seed: instants and the traced-only cell come from it
	m, err := rep.resolve(base)
	if err != nil {
		return nil, err
	}
	if c.kind == scenario.KindMRSch {
		wl, err := m.WorkloadSpec(base.Scenario)
		if err != nil {
			return nil, err
		}
		sys := m.SystemFor(base.Scenario)
		reqs, err := serve.SampleRequests(sys, wl, sc.Window, 512)
		if err != nil {
			return nil, err
		}
		p, err := replicatePicker(c.agent, sys, sc.Window, reqs)
		if err != nil {
			return nil, err
		}
		layers["encode.encode_us"] = p.encodeUs
		layers["encode.allocs_per_op"] = p.encodeAllocs
		layers["core.pick_us"] = p.pickUs
		layers["dfp.forward_us"] = p.forwardUs
	} else {
		// One optimization cell, traced only: the GA baseline's pick cost
		// next to FCFS's on the same workload.
		ga := base
		ga.Method = scenario.MethodSpec{Kind: scenario.KindOptimize}
		if _, _, err := rep.cell(-1, ga, "ga.pick"); err != nil {
			return nil, err
		}
		layers["ga.pick_us"] = median(rec.durationsUs("ga.pick"))
	}
	setupLayers(sc, rec, layers)
	return layers, nil
}
