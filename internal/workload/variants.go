package workload

import (
	"math"
	"math/rand"

	"repro/internal/job"
)

// NoiseWalltimes returns a copy of jobs whose user walltime estimates are
// perturbed by multiplicative lognormal noise: w' = w * exp(sigma * N(0,1)),
// re-snapped to the 15-minute request grid the generator uses and floored
// at the actual runtime — estimates stay upper bounds of the true runtime,
// the invariant the generator maintains and reservation/backfilling
// planning assumes. sigma <= 0 is an exact identity: fresh clones with
// every field byte-equal to the input and no rng draws consumed, so a
// wtn=0 variant can never drift from its base scenario (and, like the
// sigma > 0 path, the caller may mutate the result without aliasing the
// input). Arrivals, runtimes, and demands are untouched: this is the
// walltime-estimate-noise theta axis, degrading only the information
// schedulers plan with.
//
// This is the copying form: job.CloneAll, then NoiseWalltimesInPlace on the
// copy. A caller that built the jobs itself skips the copy.
func NoiseWalltimes(jobs []*job.Job, sigma float64, seed int64) []*job.Job {
	out := job.CloneAll(jobs)
	NoiseWalltimesInPlace(out, sigma, seed)
	return out
}

// NoiseWalltimesInPlace is NoiseWalltimes on jobs the caller owns: it
// overwrites each Walltime, touches nothing else, and draws exactly what
// the copying form draws, in the same order (nothing when sigma <= 0).
func NoiseWalltimesInPlace(jobs []*job.Job, sigma float64, seed int64) {
	if sigma <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for _, j := range jobs {
		w := j.Walltime * math.Exp(sigma*rng.NormFloat64())
		w = math.Ceil(w/900) * 900
		if w < j.Runtime {
			w = math.Ceil(j.Runtime/900) * 900
		}
		j.Walltime = w
	}
}
