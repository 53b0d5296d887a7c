// The batched greedy decider behind the decision service (internal/serve).
// A BatchDecider scores B decision requests in ONE batched forward pass per
// module — the admission-batching amortization — through the same
// modules.forwardDueling that Agent.Act runs at bsz=1, so every row's
// arithmetic is bitwise identical to the single-sample greedy path
// (Agent.Act):
//
//   - nn.Layer.Forward computes every sample row with the same kernel
//     primitives in the same order regardless of bsz, so each row of a
//     batched pass is bitwise equal to the bsz=1 result under whichever nn
//     kernel set the process runs — the Set contract in internal/nn/kernel.
//   - The dueling combine is forwardDueling's, and goal extension, the
//     scoring dot product and the argmax below are the calls Act makes.
//
// Together that yields the serve contract's headline guarantee: the action
// chosen for a request does not depend on which other requests happened to
// share its batch.
package dfp

import (
	"fmt"

	"repro/internal/nn"
)

// BatchDecider is a read-only batched inference clone of a Model: its
// networks alias the model's weights (nn.SharedClone), and a batch of one
// reads the model's packed first layer, while its forward state and gathered
// rows are private. A model's weights never change, so nothing need be
// excluded against its calls; internal/serve swaps in a decider of another
// model instead. A BatchDecider is not safe for concurrent use by multiple
// goroutines.
type BatchDecider struct {
	cfg  *Config
	nets modules
	scr  inferScratch

	// Gathered request rows, Ensure-grown and reused across calls:
	// steady-state Decide performs zero heap allocations, matching the
	// single-sample Act. The extended goals live in scr.goalExt.
	stateB, measB nn.Vec
}

// DecideBatch greedily selects one action per request row. states[i] is the
// encoded state, meas[i] the measurement vector, goals[i] the per-measurement
// goal (pre-extension), and valid[i] the number of valid actions (clamped to
// [1, Actions] like Act). Results are written into dst (grown as needed) and
// returned. Row i's action is bitwise identical to
// Agent.Act(states[i], meas[i], goals[i], valid[i], false) at any batch size.
func (d *BatchDecider) DecideBatch(states, meas, goals [][]float64, valid []int, dst []int) []int {
	b := len(states)
	if len(meas) != b || len(goals) != b || len(valid) != b {
		panic(fmt.Sprintf("dfp: DecideBatch got %d states, %d meas, %d goals, %d valid", b, len(meas), len(goals), len(valid)))
	}
	if cap(dst) < b {
		dst = make([]int, b)
	}
	dst = dst[:b]
	if b == 0 {
		return dst
	}
	cfg := d.cfg
	sd, m, gd, n := cfg.StateDim, cfg.Measurements, cfg.GoalDim(), cfg.Actions

	// Gather rows into row-major input matrices; extendGoalInto validates
	// each goal's length.
	d.stateB = nn.Ensure(d.stateB, b*sd)
	d.measB = nn.Ensure(d.measB, b*m)
	d.scr.goalExt = nn.Ensure(d.scr.goalExt, b*gd)
	for i := 0; i < b; i++ {
		if len(states[i]) != sd {
			panic(fmt.Sprintf("dfp: DecideBatch row %d state has %d elements, want %d", i, len(states[i]), sd))
		}
		if len(meas[i]) != m {
			panic(fmt.Sprintf("dfp: DecideBatch row %d meas has %d elements, want %d", i, len(meas[i]), m))
		}
		copy(d.stateB[i*sd:(i+1)*sd], states[i])
		copy(d.measB[i*m:(i+1)*m], meas[i])
		cfg.extendGoalInto(d.scr.goalExt[i*gd:(i+1)*gd], goals[i])
	}

	preds := d.nets.forwardDueling(cfg, &d.scr, d.stateB, d.measB, d.scr.goalExt, b)

	d.scr.score = nn.Ensure(d.scr.score, n)
	for i := 0; i < b; i++ {
		scores := scoreInto(d.scr.score, preds[i*n:(i+1)*n], d.scr.goalExt[i*gd:(i+1)*gd])
		v := valid[i]
		if v <= 0 || v > n {
			v = n
		}
		dst[i] = nn.ArgMax(scores[:v])
	}
	return dst
}
