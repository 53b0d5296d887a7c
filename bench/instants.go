package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wire"
	tracegen "repro/internal/workload"
)

// A decision instant is a serve.Request: the queue and cluster state at one
// scheduling decision, harvested by serve.SampleRequests. The same instants
// are serve-lone's op cycle and the inputs of the layer replicas below.

// rebuildContext reconstructs the decision instant from its wire form with
// public pieces only — what the daemon does per request before it can
// decide. serve-lone checks every served pick against core.MRSch.Pick on
// this reconstruction, so a replica that drifts from the daemon's fails the
// workload's correctness check.
func rebuildContext(sys cluster.Config, window int, req *serve.Request) (*sched.PickContext, error) {
	cl := cluster.New(sys)
	for _, a := range req.Running {
		if err := cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			return nil, fmt.Errorf("rebuilding instant: %w", err)
		}
	}
	queue := make([]*job.Job, len(req.Queue))
	for i, q := range req.Queue {
		queue[i] = &job.Job{ID: i, Submit: q.Submit, Walltime: q.Walltime, Demand: q.Demand}
	}
	w := min(window, len(queue))
	return &sched.PickContext{Now: req.Now, Window: queue[:w], Queue: queue, Cluster: cl, Usage: cl.Usage()}, nil
}

// timeEach runs fn once per index and returns each call's duration in µs.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = micros(int64(time.Since(t0)))
	}
	return out
}

// mallocsPer counts heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// pickerReplicas times the learned picker's layers on the instants, outside
// any simulator loop: state encoding, the whole core.MRSch.Pick, and the
// greedy DFP forward pass alone. Each reported value is a median in µs.
type pickerReplicas struct {
	encodeUs, encodeAllocs, pickUs, forwardUs float64
}

func replicatePicker(agent *core.MRSch, sys cluster.Config, window int, reqs []serve.Request) (pickerReplicas, error) {
	ctxs := make([]*sched.PickContext, len(reqs))
	for i := range reqs {
		ctx, err := rebuildContext(sys, window, &reqs[i])
		if err != nil {
			return pickerReplicas{}, err
		}
		ctxs[i] = ctx
	}
	states := make([][]float64, len(ctxs))
	goals := make([][]float64, len(ctxs))
	var p pickerReplicas
	p.encodeUs = median(timeEach(len(ctxs), func(i int) { states[i] = agent.Enc.Encode(ctxs[i]) }))
	p.encodeAllocs = mallocsPer(len(ctxs), func(i int) { states[i] = agent.Enc.Encode(ctxs[i]) })
	p.pickUs = median(timeEach(len(ctxs), func(i int) { agent.Pick(ctxs[i]) }))
	for i, ctx := range ctxs {
		goals[i] = core.GoalVector(ctx)
	}
	p.forwardUs = median(timeEach(len(ctxs), func(i int) {
		agent.Agent.Act(states[i], ctxs[i].Usage, goals[i], len(ctxs[i].Window), false)
	}))
	return p, nil
}

// replicateWire times, per instant, what the daemon's transport does around
// a request apart from the gob message codec (which is private to serve):
// one checksummed frame written and read back, and the cluster/context
// rebuild. Medians in µs.
func replicateWire(sys cluster.Config, window int, reqs []serve.Request) (frameUs, rebuildUs float64, err error) {
	payloads := make([][]byte, len(reqs))
	for i := range reqs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&reqs[i]); err != nil {
			return 0, 0, fmt.Errorf("encoding instant: %w", err)
		}
		payloads[i] = buf.Bytes()
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	frameUs = median(timeEach(len(reqs), func(i int) {
		var buf bytes.Buffer
		keep(wire.WriteFrame(&buf, payloads[i]))
		_, err := wire.ReadFrame(&buf)
		keep(err)
	}))
	rebuildUs = median(timeEach(len(reqs), func(i int) {
		_, err := rebuildContext(sys, window, &reqs[i])
		keep(err)
	}))
	return frameUs, rebuildUs, firstErr
}

// setupLayers times the two layers every workload's set-up starts with, at
// the workload's own scale: experiments.Prepare, and the base-trace
// generation inside it alone.
func setupLayers(sc experiments.Scale, rec *recorder, layers map[string]float64) {
	const reps = 5
	prepare := make([]float64, reps)
	generate := make([]float64, reps)
	for k := range prepare {
		t0 := time.Now()
		if _, err := experiments.Prepare(sc); err != nil {
			panic(err) // the scale is a builtin; every workload prepared it already
		}
		t1 := time.Now()
		tracegen.GenerateBase(tracegen.GeneratorConfig{
			System:           sc.System(),
			Duration:         sc.TraceDuration,
			MeanInterarrival: sc.MeanInterarrival,
			Seed:             sc.Seed,
		})
		t2 := time.Now()
		rec.add("experiments.prepare", -1, -1, t0, t1)
		rec.add("workload.generate", -1, -1, t1, t2)
		prepare[k] = micros(int64(t1.Sub(t0)))
		generate[k] = micros(int64(t2.Sub(t1)))
	}
	layers["experiments.prepare_us"] = median(prepare)
	layers["workload.generate_us"] = median(generate)
}
