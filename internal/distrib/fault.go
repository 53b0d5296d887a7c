package distrib

import (
	"encoding/json"
	"fmt"
	"io"
)

// Deterministic fault injection. A FaultPlan makes a worker sabotage itself
// at an exact, reproducible point in its assignment stream — the test
// harness (and the CI smoke) runs real campaigns through real failures and
// then demands byte-identical collated reports. All counters are 1-based
// ordinals over the worker's OWN assignments ("the 2nd cell this worker is
// handed"), not global cell indices: which cells land on which worker
// depends on timing, but the Nth assignment is well defined under any
// interleaving.
//
// The zero value injects nothing.
type FaultPlan struct {
	// KillAtCell severs the connection upon receiving the Nth assignment,
	// before evaluating it — a worker OOM-killed mid-campaign. The
	// assignment is lost and must be requeued onto a survivor.
	KillAtCell int `json:"kill_at_cell,omitempty"`
	// KillAfterEval evaluates the Nth assignment fully, then severs without
	// sending the result — paid compute lost, same requeue obligation.
	KillAfterEval int `json:"kill_after_eval,omitempty"`
	// CorruptResult flips a byte inside the Nth result frame's payload
	// (checksum left stale), so the coordinator sees a damaged frame.
	CorruptResult int `json:"corrupt_result,omitempty"`
	// TruncateResult writes only the first half of the Nth result frame and
	// severs — the mid-write crash shape of a frame.
	TruncateResult int `json:"truncate_result,omitempty"`
	// DuplicateResult transmits the Nth result frame twice — the retried
	// send of a flaky network layer. Exactly-once collation must drop the
	// second copy.
	DuplicateResult int `json:"duplicate_result,omitempty"`
	// MuteAtCell stops heartbeats AND stalls evaluation upon receiving the
	// Nth assignment: the worker is alive but silent, the shape a heartbeat
	// timeout exists to catch. The stall holds until the coordinator severs
	// the connection.
	MuteAtCell int `json:"mute_at_cell,omitempty"`
}

// Validate rejects negative ordinals.
func (p FaultPlan) Validate() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"kill_at_cell", p.KillAtCell},
		{"kill_after_eval", p.KillAfterEval},
		{"corrupt_result", p.CorruptResult},
		{"truncate_result", p.TruncateResult},
		{"duplicate_result", p.DuplicateResult},
		{"mute_at_cell", p.MuteAtCell},
	} {
		if v.n < 0 {
			return fmt.Errorf("distrib: fault plan: %s %d must be >= 0 (0 = off)", v.name, v.n)
		}
	}
	return nil
}

// Faults maps worker id → that worker's plan: the -fault-plan file format.
// Workers without an entry run clean.
type Faults map[int]FaultPlan

// LoadFaults reads a Faults map from strict JSON (unknown fault names are
// rejected — a typoed fault must not silently run a clean campaign).
func LoadFaults(r io.Reader) (Faults, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f Faults
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("distrib: decoding fault plan: %w", err)
	}
	for id, plan := range f {
		if id < 0 {
			return nil, fmt.Errorf("distrib: fault plan: negative worker id %d", id)
		}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	return f, nil
}
