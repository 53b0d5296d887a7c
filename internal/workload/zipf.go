package workload

import (
	"math"
	"math/rand"

	"repro/internal/job"
)

// Zipf-skewed user/project ownership — the zipf_theta scenario axis. Real
// cluster logs attribute most submitted work to a small set of heavy users;
// this file labels a workload's jobs with user ids drawn from a Zipf
// distribution over a fixed user population, so the skew is controlled by
// one exponent. Ownership is pure metadata: schedulers stay user-blind
// (the contract internal/job documents on Job.User), so the axis perturbs
// per-user accounting without touching placement.

// DefaultZipfUsers is the user-population size the "zipf=θ" variant syntax
// implies when a spec doesn't choose its own.
const DefaultZipfUsers = 64

// ZipfPMF returns the Zipf probability mass over ranks 1..users:
// p(k) ∝ 1/k^theta, normalized. theta = 0 degenerates to the uniform
// distribution; larger theta concentrates mass on the lowest ranks.
// It panics on users <= 0 or a non-finite/negative theta (misuse, not data).
func ZipfPMF(users int, theta float64) []float64 {
	if users <= 0 {
		panic("workload: ZipfPMF needs a positive user count")
	}
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		panic("workload: ZipfPMF needs a finite theta >= 0")
	}
	p := make([]float64, users)
	sum := 0.0
	for k := range p {
		p[k] = math.Pow(float64(k+1), -theta)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
	return p
}

// AssignZipfUsersInPlace draws the User field of jobs the caller owns from
// the Zipf distribution over ranks 1..users with exponent theta, by inverse
// CDF on exactly one rng draw per job. Everything else — arrivals, runtimes,
// walltimes, demands — is left alone. theta = 0 is the unskewed baseline: a
// uniform assignment over the same population, from the same draws.
// users <= 0 disables the axis: nothing written, no rng draws. A caller that
// keeps its input runs it on a job.CloneAll.
func AssignZipfUsersInPlace(jobs []*job.Job, users int, theta float64, seed int64) {
	if users <= 0 {
		return
	}
	cdf := ZipfPMF(users, theta)
	for k := 1; k < users; k++ {
		cdf[k] += cdf[k-1]
	}
	rng := rand.New(rand.NewSource(seed))
	for _, j := range jobs {
		u := rng.Float64()
		// Inverse CDF: the first rank whose cumulative mass covers u.
		lo, hi := 0, users-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j.User = lo + 1
	}
}
