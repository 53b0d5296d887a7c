package core

import (
	"repro/internal/dfp"
	"repro/internal/encode"
	"repro/internal/sched"
)

// BatchDecider mirrors Pick for a batch of decision contexts, reading the
// agent's live weights. It encodes each context, computes its Eq. (1) goal
// vector (or the agent's FixedGoal), and selects all actions in one batched
// greedy forward pass (dfp.BatchDecider). Row i's decision is byte-identical
// to m.Pick(ctxs[i]) at any batch size — the decision-service equivalence
// contract. Not safe for concurrent use, nor with a weight change;
// internal/serve runs its one decider and its swaps under one lock.
type BatchDecider struct {
	enc       encode.Config
	bd        *dfp.BatchDecider
	fixedGoal []float64

	// One row per context of the largest batch seen: states and (without a
	// FixedGoal) goals own their vectors, meas borrows each context's Usage.
	states, meas, goals [][]float64
	valid               []int
	table               goalTable
}

// BatchDecider returns a batched decider over the agent's live weights.
func (m *MRSch) BatchDecider() *BatchDecider {
	return &BatchDecider{enc: m.Enc, bd: m.Agent.Decider(), fixedGoal: m.FixedGoal}
}

// Decide picks one window job per context, writing into dst (grown as
// needed).
func (d *BatchDecider) Decide(ctxs []*sched.PickContext, dst []int) []int {
	b := len(ctxs)
	for len(d.states) < b {
		d.states, d.meas = append(d.states, nil), append(d.meas, nil)
		d.goals, d.valid = append(d.goals, d.fixedGoal), append(d.valid, 0)
	}
	for i, ctx := range ctxs {
		d.states[i] = d.enc.EncodeInto(d.states[i], ctx)
		d.meas[i] = ctx.Usage
		if d.fixedGoal == nil {
			d.goals[i] = d.table.into(d.goals[i], ctx)
		}
		d.valid[i] = len(ctx.Window)
	}
	return d.bd.DecideBatch(d.states[:b], d.meas[:b], d.goals[:b], d.valid[:b], dst)
}
