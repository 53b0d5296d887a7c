// Package encode implements MRSch's vector-based state representation
// (§III-A of the paper), shared by the MRSch agent and the scalar-RL
// baseline so the two learn from identical observations.
//
// Each of the W window jobs contributes R+2 elements: its demand for every
// resource as a fraction of system capacity, its user-supplied runtime
// estimate, and its queued time (both normalized). Each resource unit
// contributes 2 elements: an availability bit and the time until the unit's
// estimated availability (zero when free). For the paper's Theta setup
// (W=10, R=2, N1+N2=5685 units) this yields the 11410-element state vector
// reported in §IV-C.
package encode

import (
	"fmt"

	"repro/internal/sched"
)

// Config fixes the geometry and normalization of the encoding.
type Config struct {
	// Window is W, the number of job slots encoded.
	Window int
	// Units is the per-resource unit count (the cluster capacities).
	Units []int
	// TimeScale converts seconds to the network's time unit (default 1h).
	TimeScale float64
	// MaxScaled caps normalized times so outliers cannot dwarf the rest of
	// the input (default 48 time units).
	MaxScaled float64
}

// NewConfig returns an encoding for window size w over a system with the
// given per-resource unit counts, using default normalization.
func NewConfig(w int, units []int) Config {
	u := make([]int, len(units))
	copy(u, units)
	return Config{Window: w, Units: u, TimeScale: 3600, MaxScaled: 48}
}

// Resources returns R, the number of schedulable resources.
func (c *Config) Resources() int { return len(c.Units) }

// StateDim returns the encoded vector length: (R+2)*W + 2*sum(Units).
func (c *Config) StateDim() int {
	total := 0
	for _, n := range c.Units {
		total += n
	}
	return (len(c.Units)+2)*c.Window + 2*total
}

// JobSlotDim returns the per-job element count (R+2).
func (c *Config) JobSlotDim() int { return len(c.Units) + 2 }

// JobBlockLen returns the length of the window-jobs section of the state
// vector ((R+2)*W), which precedes the per-unit sections.
func (c *Config) JobBlockLen() int { return c.JobSlotDim() * c.Window }

// UnitRange returns the half-open index range of resource r's unit section
// within the state vector. Together with JobBlockLen it defines the layout
// consumed by per-resource state modules (the §III-A design alternative).
func (c *Config) UnitRange(r int) (start, end int) {
	start = c.JobBlockLen()
	for i := 0; i < r; i++ {
		start += 2 * c.Units[i]
	}
	return start, start + 2*c.Units[r]
}

func (c *Config) clampTime(seconds float64) float64 {
	if seconds < 0 {
		seconds = 0
	}
	t := seconds / c.TimeScale
	if t > c.MaxScaled {
		t = c.MaxScaled
	}
	return t
}

// Encode builds the state vector for one scheduling instant in a fresh
// slice. Missing window slots (queue shorter than W) encode as zeros.
func (c *Config) Encode(ctx *sched.PickContext) []float64 {
	return c.EncodeInto(make([]float64, 0, c.StateDim()), ctx)
}

// EncodeInto is Encode into dst[:0], which it returns (grown if it was
// shorter than StateDim): a caller that encodes once per decision and does
// not keep the vector passes its previous one and allocates nothing.
func (c *Config) EncodeInto(dst []float64, ctx *sched.PickContext) []float64 {
	if len(c.Units) != ctx.Cluster.NumResources() {
		panic(fmt.Sprintf("encode: config has %d resources, cluster %d", len(c.Units), ctx.Cluster.NumResources()))
	}
	out := dst[:0]

	// Job slots.
	for i := 0; i < c.Window; i++ {
		if i < len(ctx.Window) {
			j := ctx.Window[i]
			for r, n := range c.Units {
				out = append(out, float64(j.Demand[r])/float64(n))
			}
			out = append(out, c.clampTime(j.Walltime))
			out = append(out, c.clampTime(ctx.Now-j.Submit))
		} else {
			for k := 0; k < c.JobSlotDim(); k++ {
				out = append(out, 0)
			}
		}
	}

	// Resource units: running allocations (sorted by estimated end) occupy
	// units front-to-back; remaining units are free.
	running := ctx.Cluster.Running()
	for r, n := range c.Units {
		filled := 0
		for _, a := range running {
			need := a.Demand[r]
			if need <= 0 {
				continue
			}
			until := c.clampTime(a.EstEnd - ctx.Now)
			for k := 0; k < need && filled < n; k++ {
				out = append(out, 0, until)
				filled++
			}
		}
		for ; filled < n; filled++ {
			out = append(out, 1, 0)
		}
	}
	return out
}
