package dfp

import (
	"bytes"
	"os"
	"testing"
)

// FuzzAgentLoadState drives arbitrary bytes through the checkpoint
// decoder. Invariants under fuzzing: LoadState never panics, and a load
// that returns an error leaves the agent bit-for-bit unchanged (the
// no-partial-state contract). CI runs a short -fuzztime smoke; the seeded
// corpus covers the valid container plus the classic corruptions.
func FuzzAgentLoadState(f *testing.F) {
	agent := goldenAgent()
	var valid bytes.Buffer
	if err := agent.SaveState(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(valid.Bytes()[:37])
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte(stateMagic))
	parent, err := os.ReadFile(parentStatePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent) // the v2 container: refused by name

	target := New(goldenConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before bytes.Buffer
		if err := target.SaveState(&before); err != nil {
			t.Fatal(err)
		}
		if err := target.LoadState(bytes.NewReader(data)); err != nil {
			var after bytes.Buffer
			if err := target.SaveState(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed LoadState mutated the agent")
			}
		}
	})
}
