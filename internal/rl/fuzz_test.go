package rl

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzSchedulerLoadState drives arbitrary bytes through the scheduler's state
// loader, as they are and sealed (so the fuzzer reaches the section decoder
// behind the checksum). Invariants: loading never panics, a failed load
// leaves the scheduler bit-for-bit unchanged, and a load allocates no more
// than a small multiple of its input.
func FuzzSchedulerLoadState(f *testing.F) {
	src := New(sys(), tinyConfig(3))
	trainEpisodes(f, src, 2, 11)
	valid := rlStateBytes(f, src)
	body := valid[:len(valid)-32]
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(body)
	f.Add(body[:len(body)/3])
	f.Add(wire.AppendString(nil, stateMagic))

	target := New(sys(), tinyConfig(3))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, wire.Seal(append([]byte(nil), data...))} {
			before := rlStateBytes(t, target)
			var err error
			if n := allocated(func() { err = loadRLState(target, file) }); n > 4*uint64(len(file))+64<<10 {
				t.Fatalf("loading %d bytes allocated %d", len(file), n)
			}
			if err != nil && !bytes.Equal(before, rlStateBytes(t, target)) {
				t.Fatal("failed load mutated the scheduler")
			}
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
