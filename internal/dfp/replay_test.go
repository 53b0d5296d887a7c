package dfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func exp(id int) *Experience {
	return &Experience{Action: id, State: appendRuns(nil, []float64{float64(id)})}
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

// sameBits reports whether two vectors hold the same float64 words.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRuns packs x, expands it back and fails unless every word comes back
// as it went in and the form is at most one word longer than x.
func checkRuns(t *testing.T, x []float64) {
	t.Helper()
	r := appendRuns(nil, x)
	if got := r.appendTo(nil); !sameBits(got, x) {
		t.Fatalf("round trip of %v gave %v", x, got)
	}
	if len(r) > len(x)+1 {
		t.Fatalf("%d elements took %d words", len(x), len(r))
	}
	// Appending to a non-empty prefix keeps the prefix and adds x.
	prefix := []float64{7, -7}
	if got := r.appendTo(prefix); !sameBits(got[:2], prefix) || !sameBits(got[2:], x) {
		t.Fatalf("appendTo after a prefix gave %v", got)
	}
}

// The run-length form gives back every vector to the bit: signed zeros, NaN
// payloads (quiet and signalling), subnormals, infinities, odd and even
// lengths, the empty and one-element vectors, constant and alternating
// vectors, and runs broken one pair before their end.
func TestRunsRoundTripBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	qnan := math.Float64frombits(0x7ff8_0000_0000_beef)
	snan := math.Float64frombits(0x7ff0_0000_0000_0001)
	negNaN := math.Float64frombits(0xfff8_dead_0000_0001)
	sub := math.Float64frombits(1)
	special := []float64{0, negZero, qnan, snan, negNaN, sub, -sub, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1}
	fixed := [][]float64{
		nil, {}, {0}, {negZero}, {snan}, {1, 2}, {1, 2, 3},
		{0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, negZero, 0, negZero}, {negZero, 0, 0, negZero},
		{qnan, qnan, qnan, qnan, qnan, qnan}, {snan, qnan, snan, qnan}, {qnan, snan, snan, qnan},
		{sub, -sub, sub, -sub, sub}, {1, 0, 1, 0, 1, 0, 2, 0}, {1, 0, 1, 0, 0, 1, 0, 1},
		special,
	}
	for _, x := range fixed {
		checkRuns(t, x)
	}
	// Encoder-shaped vectors: a literal job block, then units in runs of
	// identical pairs of random length, some pairs bitwise equal but for the
	// sign of a zero or a NaN payload.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		x := make([]float64, 0, n+2)
		for len(x) < n {
			a, b := special[rng.Intn(len(special))], special[rng.Intn(len(special))]
			for k := rng.Intn(6); k >= 0 && len(x) < n; k-- {
				x = append(x, a, b)
			}
		}
		checkRuns(t, x[:n])
	}
	// Constant and alternating vectors of every length up to 40.
	for n := 0; n <= 40; n++ {
		c, alt := make([]float64, n), make([]float64, n)
		for i := range alt {
			c[i] = snan
			alt[i] = float64(i % 2)
		}
		checkRuns(t, c)
		checkRuns(t, alt)
	}
	if r := appendRuns(nil, make([]float64, 394)); len(r) != 3 {
		t.Fatalf("an all-zero state of 394 elements took %d words, want one run of 3", len(r))
	}
}

// FuzzRuns round-trips arbitrary float64 words through the run-length form:
// the bytes are read as little-endian words (a short tail is one more word),
// and every word must come back bitwise.
func FuzzRuns(f *testing.F) {
	word := func(bits uint64) []byte { return binary.LittleEndian.AppendUint64(nil, bits) }
	pair := append(word(0x3ff0_0000_0000_0000), word(0)...)
	f.Add([]byte{})
	f.Add(word(0x7ff0_0000_0000_0001))
	f.Add(bytes.Repeat(pair, 9))
	f.Add(append(bytes.Repeat(pair, 5), word(0x8000_0000_0000_0000)...))
	f.Add(bytes.Repeat(append(word(0), word(0x8000_0000_0000_0000)...), 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := make([]float64, 0, len(data)/8+1)
		for len(data) > 0 {
			var w [8]byte
			data = data[copy(w[:], data):]
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(w[:])))
		}
		checkRuns(t, x)
	})
}

// The minibatch the engine gathers from stored runs is, row for row and bit
// for bit, the dense copy of the sampled states.
func TestGatheredMinibatchEqualsDenseCopy(t *testing.T) {
	cfg := smallConfig()
	cfg.StateDim = 15 // odd: the last segment is a literal of odd length
	cfg.shards = 1    // the whole minibatch in worker 0's gather
	cfg.BatchSize = 16
	a := New(cfg)
	fillReplay(a, 40, 8)
	rng := rand.New(rand.NewSource(23))
	palette := []float64{0, math.Copysign(0, -1), 1, 0.25, math.Float64frombits(3)}
	for _, e := range a.replay.buf[:a.replay.len()] {
		state := make([]float64, 0, cfg.StateDim+1)
		for len(state) < cfg.StateDim {
			p, q := palette[rng.Intn(len(palette))], palette[rng.Intn(len(palette))]
			for k := rng.Intn(4); k >= 0; k-- {
				state = append(state, p, q)
			}
		}
		e.State = appendRuns(nil, state[:cfg.StateDim])
	}
	for step := 0; step < 3; step++ {
		a.TrainStep()
		tw := a.workers[0]
		if len(tw.stateB) != len(a.batchBuf)*cfg.StateDim {
			t.Fatalf("gathered %d state words for %d samples of %d", len(tw.stateB), len(a.batchBuf), cfg.StateDim)
		}
		var dense []float64
		for _, e := range a.batchBuf {
			dense = append(dense, e.State.appendTo(nil)...)
		}
		if !sameBits(tw.stateB, dense) {
			t.Fatalf("step %d: the gathered states differ from the dense copy", step)
		}
	}
}
