package dfp

import (
	"math/rand"
	"testing"
)

func exp(id int) *Experience {
	return &Experience{Action: id, State: []float64{float64(id)}}
}

// ids returns the Action tags currently stored, in slot order.
func ids(r *replay) []int {
	var out []int
	for _, e := range r.buf[:r.len()] {
		out = append(out, e.Action)
	}
	return out
}

// Before wraparound the single ring stores insertions in order; after
// wraparound the oldest entries are evicted first and the write cursor
// cycles — the FIFO eviction contract the agent's uniform sampling assumes.
func TestReplayWraparoundEvictionOrder(t *testing.T) {
	r := newReplay(4)
	for i := 0; i < 3; i++ {
		r.add(exp(i))
	}
	if r.len() != 3 {
		t.Fatalf("len %d, want 3", r.len())
	}
	if got := ids(r); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("pre-wrap contents %v", got)
	}

	r.add(exp(3)) // buffer now full: [0 1 2 3]
	r.add(exp(4)) // evicts 0 -> [4 1 2 3]
	r.add(exp(5)) // evicts 1 -> [4 5 2 3]
	if r.len() != 4 {
		t.Fatalf("post-wrap len %d, want capacity 4", r.len())
	}
	got := ids(r)
	want := []int{4, 5, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-wrap contents %v, want %v", got, want)
		}
	}

	// Another full cycle evicts everything from the first generation.
	for i := 6; i < 10; i++ {
		r.add(exp(i))
	}
	for _, id := range ids(r) {
		if id < 6 {
			t.Fatalf("generation-1 experience %d survived two wraparounds: %v", id, ids(r))
		}
	}
}

// Config.ReplayCap is a hard bound (a non-positive one is a ring of one).
func TestReplayCapacityExact(t *testing.T) {
	for _, tc := range []struct{ cap, want int }{{1000, 1000}, {7, 7}, {1, 1}, {0, 1}, {-3, 1}} {
		r := newReplay(tc.cap)
		if len(r.buf) != tc.want {
			t.Fatalf("cap=%d: ring holds %d slots, want %d", tc.cap, len(r.buf), tc.want)
		}
		for i := 0; i < 3*tc.want; i++ {
			if r.add(exp(i)); r.len() != min(i+1, tc.want) {
				t.Fatalf("cap=%d: len %d after %d adds", tc.cap, r.len(), i+1)
			}
		}
	}
}

// Sampling must consume the rng exactly like the reference ring written out
// below: one Intn(len) per draw over the same contents. This is the
// arithmetic every trained-weights golden is pinned to.
func TestReplaySingleShardSamplingMatchesReference(t *testing.T) {
	const cap, n = 8, 11
	r := newReplay(cap)
	var ref []*Experience // reference: plain ring
	refNext, refFull := 0, false
	refBuf := make([]*Experience, cap)
	for i := 0; i < n; i++ {
		e := exp(i)
		r.add(e)
		refBuf[refNext] = e
		refNext++
		if refNext == cap {
			refNext, refFull = 0, true
		}
	}
	refLen := refNext
	if refFull {
		refLen = cap
	}
	ref = refBuf[:refLen]

	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	for i := 0; i < 64; i++ {
		got := r.sample(rngA)
		want := ref[rngB.Intn(refLen)]
		if got != want {
			t.Fatalf("draw %d: got experience %d, reference %d", i, got.Action, want.Action)
		}
	}
}

// sample on an empty buffer is a programming error and must fail loudly.
func TestReplayEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sample on empty replay did not panic")
		}
	}()
	newReplay(4).sample(rand.New(rand.NewSource(1)))
}
