package workload

import (
	"math"
	"math/rand"

	"repro/internal/job"
)

// NoiseWalltimesInPlace perturbs the user walltime estimates of jobs the
// caller owns by multiplicative lognormal noise: w' = w * exp(sigma * N(0,1)),
// re-snapped to the 15-minute request grid the generator uses and floored
// at the actual runtime — estimates stay upper bounds of the true runtime,
// the invariant the generator maintains and reservation/backfilling
// planning assumes. sigma <= 0 is an exact identity: nothing written and no
// rng draws consumed, so a wtn=0 variant can never drift from its base
// scenario. Arrivals, runtimes, and demands are untouched: this is the
// walltime-estimate-noise theta axis, degrading only the information
// schedulers plan with. A caller that keeps its input runs it on a
// job.CloneAll.
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
