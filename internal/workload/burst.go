package workload

import (
	"fmt"
	"math/rand"
)

// Markov-modulated bursty arrivals — the burst scenario axis. The base
// generator's exponential gaps are scaled by a two-state (calm/burst)
// Markov chain advanced once per accepted arrival, the discrete-time form
// of a Markov-modulated Poisson process: calm stretches at one rate, burst
// runs at another, with geometric run lengths. The chain consumes its own
// seeded rng stream, so the job-body draws (sizes, runtimes, walltimes,
// diurnal thinning) of a modulated trace are identical to the unmodulated
// one — and a chain whose two scales are equal reproduces the plain
// interarrival-scaled trace byte for byte (the metamorphic identity the
// generator test suite pins).

// Burst parameterizes the modulation: the calm/burst gap-scale pair and the
// per-arrival transition probabilities. Scales multiply the generator's
// MeanInterarrival while the chain sits in that state (smaller = faster
// arrivals); PEnter/PExit are P(calm→burst) and P(burst→calm) evaluated
// after each arrival, giving geometric run lengths with means 1/PEnter and
// 1/PExit arrivals.
type Burst struct {
	CalmScale  float64
	BurstScale float64
	PEnter     float64
	PExit      float64
}

// Validate rejects parameters that would hang or corrupt the generator.
func (b Burst) Validate() error {
	if !(b.CalmScale > 0) || !(b.BurstScale > 0) {
		return fmt.Errorf("workload: burst gap scales must be positive (calm %g, burst %g)", b.CalmScale, b.BurstScale)
	}
	if b.PEnter < 0 || b.PEnter > 1 || b.PExit <= 0 || b.PExit > 1 {
		return fmt.Errorf("workload: burst transition probabilities outside range (enter %g, exit %g)", b.PEnter, b.PExit)
	}
	return nil
}

// StationaryBurstFrac is the chain's stationary probability of the burst
// state: PEnter/(PEnter+PExit).
func (b Burst) StationaryBurstFrac() float64 {
	return b.PEnter / (b.PEnter + b.PExit)
}

// burstChain is the per-trace chain state. Its rng stream is private to the
// chain: advancing it never perturbs the generator's main stream.
type burstChain struct {
	b       Burst
	rng     *rand.Rand
	inBurst bool
}

// burstSeedMix decorrelates the chain's stream from the generator's other
// Seed-derived streams.
const burstSeedMix = 0x62757273 // "burs"

func newBurstChain(b Burst, seed int64) *burstChain {
	if err := b.Validate(); err != nil {
		panic(err) // misuse: specs validate before reaching the generator
	}
	c := &burstChain{b: b, rng: rand.New(rand.NewSource(seed ^ burstSeedMix))}
	// Start from the stationary distribution so short traces aren't biased
	// toward the calm state.
	c.inBurst = c.rng.Float64() < b.StationaryBurstFrac()
	return c
}

// next returns the gap scale for the upcoming arrival and then advances the
// chain one step.
func (c *burstChain) next() float64 {
	scale := c.b.CalmScale
	if c.inBurst {
		scale = c.b.BurstScale
	}
	if c.inBurst {
		if c.rng.Float64() < c.b.PExit {
			c.inBurst = false
		}
	} else {
		if c.rng.Float64() < c.b.PEnter {
			c.inBurst = true
		}
	}
	return scale
}
