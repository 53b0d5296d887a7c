package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// scanLanes is internal/sim's demand-key layout, restated: n lanes of width
// bits, the top bit of each its guard, the value below it.
type scanLanes struct {
	n, width uint
	guard    uint64
}

func newScanLanes(n uint) scanLanes {
	l := scanLanes{n: n, width: 64 / n}
	for r := uint(0); r < n; r++ {
		l.guard |= 1 << (r*l.width + l.width - 1)
	}
	return l
}

func (l scanLanes) max() uint64 { return 1<<(l.width-1) - 1 }

func (l scanLanes) key(v []uint64) (k uint64) {
	for r, x := range v {
		k |= x << (uint(r) * l.width)
	}
	return k
}

// scanCase is one queue in both forms: unpacked demand vectors, which the
// oracle compares lane by lane, and the packed columns the kernels read.
type scanCase struct {
	l           scanLanes
	demand      [][]uint64
	walls       []float64
	free, extra []uint64
	now, shadow float64
	keys        []uint64
	fkey, ekey  uint64
}

func (c *scanCase) pack() {
	c.keys = c.keys[:0]
	for _, d := range c.demand {
		c.keys = append(c.keys, c.l.key(d))
	}
	c.fkey, c.ekey = c.l.key(c.free)|c.l.guard, c.l.key(c.extra)|c.l.guard
}

func fitsLanes(d, limit []uint64) bool {
	for r := range d {
		if d[r] > limit[r] {
			return false
		}
	}
	return true
}

// want is the EASY test on the unpacked vectors.
func (c *scanCase) want(i int) int {
	for ; i < len(c.demand); i++ {
		d := c.demand[i]
		if fitsLanes(d, c.free) && (c.now+c.walls[i] <= c.shadow || fitsLanes(d, c.extra)) {
			break
		}
	}
	return i
}

// check holds every set to the oracle from every start index, up to a few
// past the end.
func (c *scanCase) check(t *testing.T, what string) {
	t.Helper()
	c.pack()
	for _, s := range benchSets() {
		for i := 0; i <= len(c.keys)+4; i++ {
			if got, want := s.BackfillScan(c.keys, c.walls, i, c.fkey, c.ekey, c.l.guard, c.now, c.shadow), c.want(i); got != want {
				t.Fatalf("%s, %s set, %d jobs, %d lanes, from %d: index %d, want %d", what, s.Name, len(c.keys), c.l.n, i, got, want)
			}
		}
	}
}

// Every set gives the index the test on unpacked vectors gives: over every
// queue length mod 4 and every start, with a lone passing job on every lane
// of a four-job step and none at all, near misses in every lane, and
// walltimes a ulp either side of the shadow time and on it.
func TestBackfillScanForms(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []uint{1, 2, 3, 8} {
		l := newScanLanes(n)
		top := min(l.max(), 40)
		vec := func(near []uint64) []uint64 {
			v := make([]uint64, n)
			for r := range v {
				v[r] = uint64(rng.Int63n(int64(top + 1)))
				if near != nil && rng.Intn(3) > 0 { // a near miss or a near fit
					x := int64(near[r]) + int64(rng.Intn(3)) - 1
					v[r] = uint64(min(max(x, 0), int64(l.max())))
				}
			}
			return v
		}
		// Walltimes on the shadow boundary: now+wall equal to shadow, and the
		// neighbouring doubles, which round to it or past it.
		now := 1e5 + rng.Float64()
		wall := 3600.25
		shadow := now + wall
		walls := []float64{wall, math.Nextafter(wall, 0), math.Nextafter(wall, math.Inf(1)), wall / 2, wall * 2}

		for trial := 0; trial < 300; trial++ {
			c := &scanCase{l: l, now: now, shadow: shadow, free: vec(nil)}
			c.extra = vec(c.free)
			for range rng.Intn(38) {
				c.demand = append(c.demand, vec(c.free))
				c.walls = append(c.walls, walls[rng.Intn(len(walls))])
			}
			c.check(t, "random")
		}

		// One job passes, by its walltime or by fitting extra, among jobs
		// that each fail one part: too big for free in some lane, or fitting
		// free but ending past the shadow time and too big for extra.
		free := make([]uint64, n)
		extra := make([]uint64, n)
		for r := range free {
			free[r], extra[r] = top-1, top/2
		}
		over := func(limit []uint64) []uint64 {
			v := append([]uint64(nil), limit...)
			v[rng.Intn(int(n))]++
			return v
		}
		for size := 0; size <= 13; size++ {
			for hit := -1; hit < size; hit++ {
				c := &scanCase{l: l, now: now, shadow: shadow, free: free, extra: extra}
				for k := 0; k < size; k++ {
					switch {
					case k == hit && k%2 == 0:
						c.demand, c.walls = append(c.demand, free), append(c.walls, wall)
					case k == hit:
						c.demand, c.walls = append(c.demand, extra), append(c.walls, wall*2)
					case k%2 == 0:
						c.demand, c.walls = append(c.demand, over(free)), append(c.walls, wall/2)
					default:
						c.demand, c.walls = append(c.demand, over(extra)), append(c.walls, wall*2)
					}
				}
				c.check(t, "planted")
				if hit >= 0 {
					c.pack()
					if got := Reference.BackfillScan(c.keys, c.walls, 0, c.fkey, c.ekey, l.guard, now, shadow); got != hit {
						t.Fatalf("%d lanes, %d jobs: the planted job at %d was found at %d", n, size, hit, got)
					}
				}
			}
		}
	}
}
