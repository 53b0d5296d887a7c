package core

import (
	"io"

	"repro/internal/dfp"
	"repro/internal/sched"
)

// BatchDecider mirrors Pick for a batch of decision contexts, reading a
// model's weights. It encodes each context, computes its Eq. (1) goal
// vector (or the model's FixedGoal), and selects all actions in one batched
// greedy forward pass (dfp.BatchDecider). Row i's decision is byte-identical
// to the Pick of the model's agent on ctxs[i] at any batch size — the
// decision-service equivalence contract. Not safe for concurrent use.
type BatchDecider struct {
	m  *Model
	bd *dfp.BatchDecider

	// One row per context of the largest batch seen: states and (without a
	// FixedGoal) goals own their vectors, meas borrows each context's Usage.
	states, meas, goals [][]float64
	valid               []int
	table               goalTable
}

// BatchDecider returns a batched decider of the model.
func (m *Model) BatchDecider() *BatchDecider { return &BatchDecider{m: m, bd: m.DFP.Decider()} }

// Reload returns a decider of a model built like d's — the same encoder,
// network configuration and FixedGoal — holding the weights of the model
// file r, or the error that refused the file. It reads nothing of d that
// changes, so it may run while d decides on another goroutine.
func (d *BatchDecider) Reload(r io.Reader) (*BatchDecider, error) {
	dm, err := dfp.LoadModel(d.m.DFP.Config(), r)
	if err != nil {
		return nil, err
	}
	return (&Model{Enc: d.m.Enc, DFP: dm, FixedGoal: d.m.FixedGoal}).BatchDecider(), nil
}

// Decide picks one window job per context, writing into dst (grown as
// needed).
func (d *BatchDecider) Decide(ctxs []*sched.PickContext, dst []int) []int {
	b := len(ctxs)
	for len(d.states) < b {
		d.states, d.meas = append(d.states, nil), append(d.meas, nil)
		d.goals, d.valid = append(d.goals, d.m.FixedGoal), append(d.valid, 0)
	}
	for i, ctx := range ctxs {
		d.states[i] = d.m.Enc.EncodeInto(d.states[i], ctx)
		d.meas[i] = ctx.Usage
		if d.m.FixedGoal == nil {
			d.goals[i] = d.table.into(d.goals[i], ctx)
		}
		d.valid[i] = len(ctx.Window)
	}
	return d.bd.DecideBatch(d.states[:b], d.meas[:b], d.goals[:b], d.valid[:b], dst)
}
