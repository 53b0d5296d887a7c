// Benchmark harness: microbenchmarks of the substrates the repository
// benchmark (go run ./bench) decomposes into — the simulator, the DFP
// forward and training step, decision latency at the paper's full scale,
// a campaign's evaluation picks and rollout collection. The paper's figures
// are regenerated by cmd/mrsch-exp, not from here.
//
// Run everything with:
//
//	go test -run=NONE -bench=. -benchmem
package repro_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/nn/kernel"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Substrate microbenchmarks.

// BenchmarkSimulatorFCFS replays S4 traces of 7 and 28 days under FCFS at the
// geometry the repository benchmark's campaign cells use (1/32 Theta, 110 s
// mean interarrival; campaign-fcfs runs the 7-day length). The 28d/7d ratio
// of ns/op is how simulator cost grows with trace length: 4 is linear.
func BenchmarkSimulatorFCFS(b *testing.B) {
	sys := workload.ThetaScaled(32)
	scn, _ := workload.ScenarioByName("S4")
	for _, days := range []int{7, 28} {
		base := workload.GenerateBase(workload.GeneratorConfig{
			System: sys, Duration: float64(days) * 86400, MeanInterarrival: 110, Seed: 3,
		})
		pool := workload.AssignDarshanBB(base, sys.Capacities[1], 4)
		jobs := workload.Apply(base, pool, scn, sys, 5)
		b.Run(fmt.Sprintf("%dd", days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sim.New(sys, sched.NewWindowPolicy(sched.FCFS{}, 10))
				if err := s.Load(job.CloneAll(jobs)); err != nil {
					b.Fatal(err)
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs)), "jobs/run")
		})
	}
}

func BenchmarkDFPForward(b *testing.B) {
	cfg := dfp.DefaultConfig(746, 2, 10)
	agent := dfp.New(cfg)
	state := make([]float64, 746)
	meas := []float64{0.5, 0.4}
	goal := agent.ExtendGoal([]float64{0.6, 0.4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Predict(state, meas, goal)
	}
}

// fillReplay records episodes of 40 decisions through a rollout actor and
// ingests them. Epsilon 1 makes every decision a random one (no forward
// pass), so the fill is cheap even at paper scale.
func fillReplay(agent *dfp.Agent, episodes int) {
	state := make([]float64, agent.Config().StateDim)
	goal := []float64{0.5, 0.5}
	ac := agent.Actor()
	for ep := 0; ep < episodes; ep++ {
		ac.Reset(int64(ep), 1)
		for t := 0; t < 40; t++ {
			ac.Act(state, []float64{0.5, 0.5}, goal, 10)
		}
		agent.IngestTranscript(ac.TakeTranscript())
	}
}

// trainReadyAgent builds a DefaultConfig-scale agent with a populated replay
// buffer for the TrainStep benchmarks, and takes one step, so that the
// engine's one-off set-up (workers, plan, scratch) stays out of the timed
// loop and allocs/op counts what every burst allocates.
func trainReadyAgent() *dfp.Agent {
	agent := dfp.New(dfp.DefaultConfig(256, 2, 10))
	fillReplay(agent, 8)
	agent.TrainStep()
	return agent
}

// BenchmarkTrainStep measures the batched sparse-dueling training engine at
// DefaultConfig scale (BatchSize 32), its two shards on two goroutines where
// there are two CPUs: a burst of one, so every op pays the helper's start.
func BenchmarkTrainStep(b *testing.B) {
	agent := trainReadyAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainStep()
	}
}

// BenchmarkTrainSteps is what an episode's reduction runs: one op is one
// 32-step burst, its helper goroutine started once.
func BenchmarkTrainSteps(b *testing.B) {
	agent := trainReadyAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainSteps(32, nil)
	}
}

// BenchmarkTrainStepSingleWorker isolates the batched kernels from the
// parallel sharding: both shards on one goroutine (GOMAXPROCS=1), the same
// bits as BenchmarkTrainStep computes.
func BenchmarkTrainStepSingleWorker(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	agent := trainReadyAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainStep()
	}
}

// BenchmarkTrainStepPhases regenerates ROADMAP's per-phase account of a
// gradient step: one op is one instrumented quick-scale S4 training (what
// `go run ./bench -workload train-rollout -trace 1` replicates), and the
// reported metrics are the medians, over every step of every op, of
// dfp_train_step_ns and of the four histograms that split it on the calling
// goroutine.
//
//	go test -run=NONE -bench=BenchmarkTrainStepPhases -benchtime=5x .
func BenchmarkTrainStepPhases(b *testing.B) {
	m := experiments.MustPrepare(experiments.QuickScale())
	opt := experiments.CampaignOptions{Metrics: telemetry.NewRegistry()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Train(m, experiments.TrainRun{Kind: scenario.KindMRSch, Family: "S4"}, opt); err != nil {
			b.Fatal(err)
		}
	}
	for _, h := range opt.Metrics.Snapshot().Histograms {
		if name, ok := strings.CutPrefix(h.Name, "dfp_"); ok && strings.HasSuffix(name, "_ns") {
			b.ReportMetric(float64(h.P50)/1e3, strings.TrimSuffix(name, "_ns")+"_p50_us")
		}
	}
}

// BenchmarkTrainStepPaperScale runs one batched training step on the
// full-scale §IV-C network. Expensive (~seconds per op): run with
// -benchtime=1x.
func BenchmarkTrainStepPaperScale(b *testing.B) {
	cfg := dfp.PaperScaleConfig(11410, 2, 10)
	agent := dfp.New(cfg)
	fillReplay(agent, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainStep()
	}
}

// BenchmarkActInference measures one greedy decision at experiment scale
// (the QuickScale-campaign network size). Like BenchmarkDecisionLatency it
// must run at 0 allocs/op.
func BenchmarkActInference(b *testing.B) {
	cfg := dfp.DefaultConfig(256, 2, 10)
	agent := dfp.New(cfg)
	state := make([]float64, cfg.StateDim)
	meas := []float64{0.5, 0.4}
	goal := []float64{0.6, 0.4}
	agent.Act(state, meas, goal, 10, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state, meas, goal, 10, false)
	}
}

// BenchmarkDecisionLatency is the §V-F headline number: one greedy Act call
// on the full-scale §IV-C network (4000/1000 state module, 512-wide
// streams, the 11410-feature Theta encoding). Acceptance target: 0 allocs/op
// in steady state — the forward pass runs entirely through agent-owned
// scratch buffers.
func BenchmarkDecisionLatency(b *testing.B) {
	cfg := dfp.PaperScaleConfig(11410, 2, 10)
	agent := dfp.New(cfg)
	state := make([]float64, cfg.StateDim)
	for i := range state {
		state[i] = float64(i%7) * 0.1
	}
	meas := []float64{0.5, 0.4}
	goal := []float64{0.6, 0.4}
	agent.Act(state, meas, goal, 10, false) // warm scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state, meas, goal, 10, false)
	}
}

// BenchmarkEvaluatorPicks runs quick-scale S4 cells on four trace seeds the
// way a campaign evaluates MRSch — the evaluator of a trained model — and counts, through a wrapping picker, the picks of a cell and how
// many of them were moot (no waiting job fit, so the actor ran no model:
// sched.PickContext.Startable). moot/cell over picks/cell is the share of a
// cell's decisions that skip the forward pass.
func BenchmarkEvaluatorPicks(b *testing.B) {
	base := experiments.MustPrepare(experiments.QuickScale())
	trained, _, err := experiments.TrainMRSch(base, "S4", false)
	if err != nil {
		b.Fatal(err)
	}
	agent := trained.Model()
	sp, _ := scenario.ByName("S4")
	type cell struct {
		sys  cluster.Config
		jobs []*job.Job
	}
	var cells []cell
	for _, seed := range []int64{1, 1001, 2001, 3001} {
		sc := base.Scale
		sc.Seed = seed
		m, err := experiments.PrepareFor(sc, sp)
		if err != nil {
			b.Fatal(err)
		}
		jobs, err := m.WorkloadSpec(sp)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, cell{m.SystemFor(sp), jobs})
	}
	var picks, moot int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			actor := agent.Evaluator()
			counted := sched.PickerFunc(func(ctx *sched.PickContext) int {
				picks++
				if !ctx.Startable() {
					moot++
				}
				return actor.Pick(ctx)
			})
			s := sim.New(c.sys, sched.NewWindowPolicy(counted, agent.Enc.Window))
			if err := s.Load(job.CloneAll(c.jobs)); err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	n := float64(b.N * len(cells))
	b.ReportMetric(b.Elapsed().Seconds()*1e3/n, "ms/cell")
	b.ReportMetric(float64(picks)/n, "picks/cell")
	b.ReportMetric(float64(moot)/n, "moot/cell")
}

// BenchmarkLockstepDecisions is the gate of ROADMAP item 10(b), lockstep
// cells, at the campaign geometry: the startable instants of one quick-scale
// S4 cell under the trained evaluator, decided one at a time by a greedy
// evaluator (dfp.Model.Evaluator, whose first layer runs packed) and in
// batches of 4 and 16 rows by a dfp.BatchDecider (packed too, over the
// chunks any row of the batch needs: the path a lockstep batch would take).
// ns/decision is per row; the gate asks batch=16 to beat the evaluator by
// 1.3x.
func BenchmarkLockstepDecisions(b *testing.B) {
	base := experiments.MustPrepare(experiments.QuickScale())
	agent, _, err := experiments.TrainMRSch(base, "S4", false)
	if err != nil {
		b.Fatal(err)
	}
	sp, _ := scenario.ByName("S4")
	jobs, err := base.WorkloadSpec(sp)
	if err != nil {
		b.Fatal(err)
	}
	var states, meas, goals [][]float64
	var valid []int
	model := agent.Model()
	actor := model.Evaluator()
	harvest := sched.PickerFunc(func(ctx *sched.PickContext) int {
		if ctx.Startable() {
			states = append(states, agent.Enc.Encode(ctx))
			meas = append(meas, slices.Clone(ctx.Usage))
			goals = append(goals, core.GoalVector(ctx))
			valid = append(valid, len(ctx.Window))
		}
		return actor.Pick(ctx)
	})
	s := sim.New(base.SystemFor(sp), sched.NewWindowPolicy(harvest, agent.Enc.Window))
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	n := len(states)
	if n < 16 {
		b.Fatalf("harvested %d startable instants", n)
	}
	perRow := func(b *testing.B, rows int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/decision")
		b.ReportMetric(float64(n), "instants")
	}
	b.Run("evaluator", func(b *testing.B) {
		ev := model.DFP.Evaluator()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % n
			ev.Act(states[k], meas[k], goals[k], valid[k])
		}
		perRow(b, 1)
	})
	for _, rows := range []int{4, 16} {
		b.Run(fmt.Sprintf("batch=%d", rows), func(b *testing.B) {
			d := model.DFP.Decider()
			var dst []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * rows) % (n - rows + 1)
				hi := lo + rows
				dst = d.DecideBatch(states[lo:hi], meas[lo:hi], goals[lo:hi], valid[lo:hi], dst)
			}
			perRow(b, rows)
		})
	}
}

// BenchmarkPaperScaleDecide is a decision on the §IV-C network at the
// paper's geometry (dfp.PaperScaleConfig: the 11410→4000 first layer, 365 MB
// dense, that Theta's 5,685 schedulable units give), untrained, over the
// startable instants of an S4 workload simulated under FCFS on the full
// Theta machine (workload.ThetaScaled(1)), encoded by the encoder: the dense
// Agent.Act, a model's lone packed evaluator, and its DecideBatch at 1, 4 and
// 16 rows, whose first layer reads the chunks any row of the batch needs.
// ns/decision is per row, and first_layer_MB/decision the first-layer
// weights a decision reads: the whole matrix dense, the listed chunks'
// columns packed (shared by a batch's rows). It holds about 0.8 GB (the
// agent's weights and the model's packed copy), so it is a one-off line, not
// a CI step:
//
//	go test -run=NONE -bench=BenchmarkPaperScaleDecide -benchtime=60x .
func BenchmarkPaperScaleDecide(b *testing.B) {
	sc := experiments.QuickScale()
	sc.Div = 1
	sp, _ := scenario.ByName("S4")
	m, err := experiments.PrepareFor(sc, sp)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := m.WorkloadSpec(sp)
	if err != nil {
		b.Fatal(err)
	}
	sys := m.SystemFor(sp)
	enc := encode.NewConfig(sc.Window, sys.Capacities)
	const want = 300
	var states, meas, goals [][]float64
	var valid []int
	harvest := sched.PickerFunc(func(ctx *sched.PickContext) int {
		if len(states) < want && ctx.Startable() {
			states = append(states, enc.Encode(ctx))
			meas = append(meas, slices.Clone(ctx.Usage))
			goals = append(goals, core.GoalVector(ctx))
			valid = append(valid, len(ctx.Window))
		}
		return 0
	})
	s := sim.New(sys, sched.NewWindowPolicy(harvest, sc.Window))
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		b.Fatal(err)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	n := len(states)
	if n < 16 {
		b.Fatalf("harvested %d startable instants", n)
	}
	cfg := dfp.PaperScaleConfig(enc.StateDim(), enc.Resources(), sc.Window)
	agent := dfp.New(cfg)
	model := agent.Model()

	in, out := cfg.StateDim, cfg.StateHidden[0]
	packed := kernel.Active().Pack != nil && out%4 == 0
	// firstLayerMB is what the first layer reads for the rows of one call:
	// the dense matrix, or the listed chunks' columns, the in%4 tail and the
	// bias of the packed layout.
	firstLayerMB := func(rows [][]float64, dense bool) float64 {
		if dense || !packed {
			return float64(in*out+out) * 8 / 1e6
		}
		body := in - in%4
		listed := 0
		for k := 0; 8*k < body; k++ {
			for half := 0; half < 2; half++ {
				for _, x := range rows {
					if nonZeroChunk(x[8*k+half:body], 2) {
						listed++
						break
					}
				}
			}
		}
		return float64((4*listed+in%4+1)*out) * 8 / 1e6
	}
	perRow := func(b *testing.B, rows int, mb float64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/decision")
		b.ReportMetric(mb/float64(b.N*rows), "first_layer_MB/decision")
		b.ReportMetric(float64(n), "instants")
	}
	b.Run("act", func(b *testing.B) {
		var mb float64
		for i := 0; i < b.N; i++ {
			k := i % n
			agent.Act(states[k], meas[k], goals[k], valid[k], false)
			mb += firstLayerMB(nil, true)
		}
		perRow(b, 1, mb)
	})
	b.Run("evaluator", func(b *testing.B) {
		ev := model.Evaluator()
		var mb float64
		for i := 0; i < b.N; i++ {
			k := i % n
			ev.Act(states[k], meas[k], goals[k], valid[k])
			b.StopTimer()
			mb += firstLayerMB(states[k:k+1], false)
			b.StartTimer()
		}
		perRow(b, 1, mb)
	})
	for _, rows := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", rows), func(b *testing.B) {
			d := model.Decider()
			var dst []int
			var mb float64
			for i := 0; i < b.N; i++ {
				lo := (i * rows) % (n - rows + 1)
				hi := lo + rows
				dst = d.DecideBatch(states[lo:hi], meas[lo:hi], goals[lo:hi], valid[lo:hi], dst)
				b.StopTimer()
				mb += firstLayerMB(states[lo:hi], false)
				b.StartTimer()
			}
			perRow(b, rows, mb)
		})
	}
}

// nonZeroChunk reports whether one 4-wide chunk of x taken every stride-th
// element, from x[0], holds a lane that is not ±0; lanes past x's end are
// padding.
func nonZeroChunk(x []float64, stride int) bool {
	for l := 0; l < 4 && l*stride < len(x); l++ {
		if x[l*stride] != 0 {
			return true
		}
	}
	return false
}

// BenchmarkDecideDuringSwap is a closed-loop client's decision latency while
// another goroutine swaps the served model in a loop, at the quick geometry:
// one connection to a daemon on loopback with no admission wait, each
// request sent when the last is answered, and the model file's own bytes
// swapped back in as fast as they load. p50_us and worst_us are the client's
// round trips; swaps/s is what the swapper installed. It uses only the
// public serve API.
func BenchmarkDecideDuringSwap(b *testing.B) {
	sc := experiments.QuickScale()
	m, err := experiments.Prepare(sc)
	if err != nil {
		b.Fatal(err)
	}
	agent := experiments.NewMRSchUntrained(sc, false)
	var weights bytes.Buffer
	if err := agent.Save(&weights); err != nil {
		b.Fatal(err)
	}
	sys := sc.System()
	reqs, err := serve.SampleRequests(sys, m.Workload("S4"), sc.Window, 256)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.NewServer(agent, sys, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swaps := 0
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.Swap(bytes.NewReader(weights.Bytes())); err != nil {
				b.Error(err)
				return
			}
			swaps++
		}
	}()
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if _, _, err := c.Decide(&reqs[i%len(reqs)]); err != nil {
			b.Error(err)
			break
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	close(stop)
	swapper.Wait()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50_us")
	b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds())/1e3, "worst_us")
	b.ReportMetric(float64(swaps)/b.Elapsed().Seconds(), "swaps/s")
}

// BenchmarkLoadModel is one model file load at the quick geometry, the file
// read from memory: what a served model's Swap and a campaign's model-store
// reload run. B/op is the file's bytes, the architecture's values the file
// is decoded into (the first layer's dense matrix among them, dropped once
// the layer is packed) and that packed copy.
func BenchmarkLoadModel(b *testing.B) {
	agent := experiments.NewMRSchUntrained(experiments.QuickScale(), false)
	var file bytes.Buffer
	if err := agent.Save(&file); err != nil {
		b.Fatal(err)
	}
	cfg := agent.Agent.Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfp.LoadModel(cfg, bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(file.Len()), "file_bytes")
}

// ---------------------------------------------------------------------------
// internal/rollout — episode collection, one episode a round; episodes/sec is
// the comparison axis. StepsPerEpisode=-1 disables gradient steps so the
// measurement isolates rollout+ingest. Greedy exploration (eps=0) makes
// every decision pay the full forward pass, the realistic steady state.

func episodeThroughputAgent(sys cluster.Config) *core.MRSch {
	return core.New(sys, core.Options{
		Window: 8,
		Seed:   11,
		Mutate: func(c *dfp.Config) {
			c.StateHidden = []int{64, 32}
			c.StateOut = 32
			c.ModuleHidden = 16
			c.StreamHidden = 32
			c.Offsets = []int{1, 2, 4, 8}
			c.TemporalWeights = []float64{0, 0.5, 0.5, 1}
			c.EpsStart = 0
			c.EpsMin = 0
		},
	})
}

func episodeThroughputSets(sys cluster.Config) []core.JobSet {
	base := workload.GenerateBase(workload.GeneratorConfig{
		System: sys, Duration: 0.5 * 86400, MeanInterarrival: 120, Seed: 9,
	})
	pool := workload.AssignDarshanBB(base, sys.Capacities[1], 10)
	scn, _ := workload.ScenarioByName("S4")
	var sets []core.JobSet
	for i, jobs := range workload.SampledSets(base, 8, 40, 12) {
		sets = append(sets, core.JobSet{
			Kind: core.Sampled,
			Jobs: workload.Apply(jobs, pool, scn, sys, 13+int64(i)),
		})
	}
	return sets
}

func BenchmarkEpisodeThroughput(b *testing.B) {
	sys := workload.ThetaScaled(32)
	sets := episodeThroughputSets(sys)
	learner := rollout.NewMRSchLearner(episodeThroughputAgent(sys), core.TrainConfig{
		System:          sys,
		StepsPerEpisode: -1, // pure collection
	})
	cfg := rollout.Config{Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rollout.Train(learner, cfg, sets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sets))*float64(b.N)/b.Elapsed().Seconds(), "episodes/sec")
}

// BenchmarkPipelinedThroughput compares barrier and pipelined rollout-
// training end to end: the same curriculum with real gradient steps
// (StepsPerEpisode=8) so there is training work for collection to overlap,
// one episode a round and each step's two shards on up to two goroutines.
// episodes/sec is the comparison axis. Measured on the 2-vCPU guest,
// 2026-10-03, three runs at -benchtime=20x with four episodes a round (a
// setting that is gone), barrier against pipelined: 230–337 against 297–355
// with two gradient goroutines — nothing, both vCPUs are already busy;
// 215–255 against 255–258 with one (1.10–1.18×), where collection fills the
// vCPU a one-goroutine step leaves idle. Unmeasured beyond 2 vCPUs.
func BenchmarkPipelinedThroughput(b *testing.B) {
	sys := workload.ThetaScaled(32)
	sets := episodeThroughputSets(sys)
	for _, mode := range []struct {
		name      string
		pipelined bool
	}{{"barrier", false}, {"pipelined", true}} {
		b.Run(mode.name, func(b *testing.B) {
			agent := episodeThroughputAgent(sys)
			learner := rollout.NewMRSchLearner(agent, core.TrainConfig{
				System:          sys,
				StepsPerEpisode: 8,
			})
			cfg := rollout.Config{Seed: 7, Pipelined: mode.pipelined}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rollout.Train(learner, cfg, sets); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(sets))*float64(b.N)/b.Elapsed().Seconds(), "episodes/sec")
		})
	}
}
