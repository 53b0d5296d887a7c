package dfp

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzAgentLoadState drives arbitrary bytes through the state loader, both as
// they are and sealed, so the fuzzer reaches the section decoder behind the
// checksum. Invariants: loading never panics, a load that returns an error
// leaves the agent bit-for-bit unchanged (the no-partial-state contract), and
// a load allocates no more than a small multiple of its input — every count
// is held against the bytes left before anything is sized from it. CI runs a
// short -fuzztime smoke; the seeded corpus covers the valid file and body plus
// the classic corruptions and the retired gob container.
func FuzzAgentLoadState(f *testing.F) {
	valid := stateBytes(f, goldenAgent())
	body := valid[:len(valid)-32]
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:37])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add(wire.AppendString(nil, stateMagic))
	parent, err := os.ReadFile(parentStatePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent) // the v3 gob container: refused as the retired format
	f.Add(body)
	f.Add(body[:len(body)/3])

	target := New(goldenConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		before := stateBytes(t, target)
		var err error
		if n := allocated(func() { err = loadState(target, data) }); n > 4*uint64(len(data))+64<<10 {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil && !bytes.Equal(before, stateBytes(t, target)) {
			t.Fatal("failed load mutated the agent")
		}
		// Sealed, the input reaches the section decoder. Its rng cursor may be
		// anything up to nn.MaxRngCursor, whose replay is a legitimately slow
		// apply, so it is decoded and not applied: decoding changes nothing,
		// whatever it returns.
		file := wire.Seal(append([]byte(nil), data...))
		before = stateBytes(t, target)
		decode := func(r *wire.Reader) (func(), error) {
			_, err := target.ReadState(r)
			return func() {}, err
		}
		if n := allocated(func() { wire.Unseal(file, decode) }); n > 4*uint64(len(file))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(file), n)
		}
		if !bytes.Equal(before, stateBytes(t, target)) {
			t.Fatal("decoding a state changed the agent")
		}
	})
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
