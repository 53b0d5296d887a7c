package kernel

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// scan4Want is BackfillScan4's contract in Go: the first word passing the
// expression, or len(keys).
func scan4Want(keys []uint64, walls []float64, free, extra, guard uint64, now, shadow float64) int {
	for k, key := range keys {
		if (free-key)&guard == guard && (now+walls[k] <= shadow || (extra-key)&guard == guard) {
			return k
		}
	}
	return len(keys)
}

// scan4Sets are the sets with a four-a-step form; the go set has none.
func scan4Sets(t *testing.T) []*Set {
	if Reference.BackfillScan4 != nil {
		t.Fatal("the go set carries a BackfillScan4; its callers run the expression themselves")
	}
	var sets []*Set
	for _, s := range benchSets() {
		if s.BackfillScan4 != nil {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		t.Skipf("no set with BackfillScan4 on this host (probed: %s)", Features())
	}
	return sets
}

// Every set's BackfillScan4 gives the Go expression's index on random words
// under random guard masks, over lengths 0 to 40, with a lone passing word
// at each position of a step, passing by its walltime or by extra, and with
// none at all; walltimes land on the shadow time, a ulp either side of it,
// and on NaN. The zero words past len(keys) pass any limit with its guard
// bits set, so a scan that reads beyond its length answers wrong there.
func TestBackfillScan4Forms(t *testing.T) {
	sets := scan4Sets(t)
	rng := rand.New(rand.NewSource(32))
	// now+wall lands on the shadow time, now+late one ulp past it and
	// now+just one ulp before it (each difference is exact: Sterbenz); the
	// walltime's own neighbours round to the shadow time or past it.
	now := 1e5 + rng.Float64()
	shadow := now + 3600.25
	wall, early := shadow-now, (shadow-now)/2
	late, just := math.Nextafter(shadow, math.Inf(1))-now, math.Nextafter(shadow, 0)-now
	walls := []float64{wall, late, just, math.Nextafter(wall, 0), math.Nextafter(wall, math.Inf(1)), math.NaN(), early, wall * 2}

	check := func(what string, keys []uint64, ws []float64, free, extra, guard uint64) {
		t.Helper()
		n := len(keys)
		want := scan4Want(keys, ws, free, extra, guard, now, shadow)
		for _, s := range sets {
			if got := s.BackfillScan4(keys, ws, free, extra, guard, now, shadow); got != want {
				t.Fatalf("%s, %s set, %d words, guard %#x: index %d, want %d", what, s.Name, n, guard, got, want)
			}
		}
	}
	// guardMask sets one to six random bits, so a random word passes a limit
	// often enough for hits and misses both to turn up.
	guardMask := func() (g uint64) {
		for p := 1 + rng.Intn(6); bits.OnesCount64(g) < p; {
			g |= 1 << rng.Intn(64)
		}
		return g
	}
	passes := func(limit, key, guard uint64) bool { return (limit-key)&guard == guard }

	for trial := 0; trial < 2000; trial++ {
		n := 4 * rng.Intn(11)
		keys, ws := make([]uint64, n, n+4), make([]float64, n, n+4)
		free, extra, guard := rng.Uint64(), rng.Uint64(), guardMask()
		if trial%2 == 0 {
			free, extra = free|guard, extra|guard
		}
		for k := range keys {
			keys[k], ws[k] = rng.Uint64(), walls[rng.Intn(len(walls))]
		}
		check("random", keys, ws, free, extra, guard)
	}

	// A lone passing word among words that each fail: too big for free, or
	// fitting free but ending past the shadow time (a ulp past it, or NaN)
	// and too big for extra.
	word := func(free, extra, guard uint64, fitsFree, fitsExtra bool) uint64 {
		for {
			k := rng.Uint64()
			if passes(free, k, guard) == fitsFree && passes(extra, k, guard) == fitsExtra {
				return k
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		guard := guardMask()
		free, extra := rng.Uint64()|guard, rng.Uint64()|guard
		for n := 0; n <= 40; n += 4 {
			for hit := -1; hit < n; hit++ {
				for _, byExtra := range []bool{false, true} {
					keys, ws := make([]uint64, n, n+4), make([]float64, n, n+4)
					for k := range keys {
						switch {
						case k == hit && byExtra:
							keys[k], ws[k] = word(free, extra, guard, true, true), late
						case k == hit:
							keys[k], ws[k] = word(free, extra, guard, true, rng.Intn(2) == 0), []float64{wall, just, early}[rng.Intn(3)]
						case k%2 == 0:
							keys[k], ws[k] = word(free, extra, guard, false, rng.Intn(2) == 0), early
						default:
							keys[k], ws[k] = word(free, extra, guard, true, false), []float64{late, math.NaN()}[rng.Intn(2)]
						}
					}
					check("planted", keys, ws, free, extra, guard)
					if got := scan4Want(keys, ws, free, extra, guard, now, shadow); hit >= 0 && got != hit {
						t.Fatalf("%d words: the planted word at %d was found at %d", n, hit, got)
					}
				}
			}
		}
	}
}
