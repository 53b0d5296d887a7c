package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// TestDaemonSchedulesLikeEvaluator is the sim <-> serve differential over
// whole schedules: quick-scale S4 cells on several trace seeds run once under
// the trained model's evaluator and once under a picker that sends every
// round's context to a live daemon on a loopback listener and schedules what
// it answers. Every report must digest the same. The cells run at once over
// one daemon, so its batches hold decisions of several real schedules. At a
// moot instant (no waiting job fits) the daemon runs the model and the
// evaluator does not; equal reports are the moot argument (internal/sim's
// "The round") holding on the served path.
func TestDaemonSchedulesLikeEvaluator(t *testing.T) {
	base := experiments.MustPrepare(experiments.QuickScale())
	agent, _, err := experiments.TrainMRSch(base, "S4", false)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.ByName("S4")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		sys  cluster.Config
		jobs []*job.Job
	}
	seeds := []int64{1, 1001, 2001, 3001}
	cells := make([]cell, len(seeds))
	want := make([]string, len(seeds))
	for i, seed := range seeds {
		sc := base.Scale
		sc.Seed = seed
		m, err := experiments.PrepareFor(sc, sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := m.WorkloadSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell{m.SystemFor(sp), jobs}
		want[i] = evaluateCell(t, cells[i].sys, agent.Model().Evaluator().Policy(), jobs)
	}

	// The daemon decides on the weights it is given, so it serves a twin
	// loaded from the trained model's file.
	var weights bytes.Buffer
	if err := agent.Save(&weights); err != nil {
		t.Fatal(err)
	}
	twin := experiments.NewMRSchUntrained(base.Scale, false)
	if err := twin.Load(&weights); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(twin, base.SystemFor(sp), serve.Config{
		MaxBatch: len(cells),
		MaxWait:  time.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// moot counts the instants where no waiting job fits; differ, those of
	// them the daemon answered with another job than the evaluator's 0.
	var moot, differ atomic.Int64
	got := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := serve.Dial(ln.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			daemon := sched.PickerFunc(func(ctx *sched.PickContext) int {
				req := serve.RequestFromContext(ctx)
				pick, _, err := client.Decide(&req)
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
				if !ctx.Startable() {
					moot.Add(1)
					if pick != 0 {
						differ.Add(1)
					}
				}
				return pick
			})
			got[i] = evaluateCell(t, c.sys, sched.NewWindowPolicy(daemon, agent.Enc.Window), c.jobs)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("seed %d: served schedule digests %s, the evaluator's %s", seed, got[i], want[i])
		}
	}

	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	var maxBatch int64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "serve_batch_size" {
			maxBatch = h.Max
		}
	}
	t.Logf("%d decisions served in %d batches (largest %d); %d moot, %d of those answered otherwise than the evaluator",
		counters["serve_decisions_total"], counters["serve_batches_total"], maxBatch, moot.Load(), differ.Load())
	if maxBatch < 2 {
		t.Errorf("no batch held more than one decision: the cells never met in the daemon")
	}
	if differ.Load() == 0 {
		t.Errorf("the daemon answered every one of %d moot instants as the evaluator does: the moot argument went untested", moot.Load())
	}
}

// evaluateCell runs an S4 cell's jobs under policy and returns the report's
// digest: the SHA-256 of its JSON, in which every float bit shows.
func evaluateCell(t *testing.T, sys cluster.Config, policy *sched.WindowPolicy, jobs []*job.Job) string {
	rep, err := experiments.Evaluate(sys, policy, jobs, experiments.MethodMRSch, "S4", -1)
	if err != nil {
		t.Error(err)
		return ""
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Error(err)
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}
