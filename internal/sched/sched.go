package sched

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// The round's vocabulary is the simulator's, which runs the round; the names
// stay here for the pickers that plug into it.
type (
	PickContext  = sim.PickContext
	Picker       = sim.Picker
	PickerFunc   = sim.PickerFunc
	WindowPolicy = sim.WindowPolicy
)

// NewWindowPolicy builds a round over p with EASY backfilling enabled
// (sim.NewWindowPolicy).
func NewWindowPolicy(p Picker, w int) *WindowPolicy { return sim.NewWindowPolicy(p, w) }

// FCFS picks the oldest waiting job — the paper's Heuristic baseline, the
// multi-resource extension of first-come-first-serve list scheduling.
type FCFS struct{}

// Pick implements Picker.
func (FCFS) Pick(*PickContext) int { return 0 }

// Shadow is the reservation shadow-time computation, walked afresh: the
// earliest start for demand and the spare capacity vector after the reserved
// job claims its share at that time. It is the oracle the simulator's reused
// walk and the property suite are held to.
func Shadow(cl *cluster.Cluster, demand []int, now float64) (shadow float64, extra []int) {
	shadow, extra = cl.EarliestFit(demand, now, nil)
	for r := range extra {
		extra[r] -= demand[r]
	}
	return shadow, extra
}
