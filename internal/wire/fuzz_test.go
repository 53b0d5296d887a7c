package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeFrame drives ReadFrame with arbitrary byte streams. The
// invariants mirror the checkpoint-decoder fuzz style: no panic on any
// input, every failure is either a clean io.EOF or a loud error, and any
// payload that does decode re-encodes to a frame that decodes back to the
// same bytes (round-trip stability). The seeded corpus covers the frame
// damage taxonomy: valid frames, bitflips, truncations, an oversize length,
// and raw garbage.
func FuzzDecodeFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := frame([]byte("seed payload for the shared frame codec"))

	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(frame(nil))
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	f.Add(valid[:4])            // truncated mid-header
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)-1] ^= 0x40
	f.Add(bitflip)
	overlong := append([]byte(nil), valid...)
	overlong[0] = 0xFF // declared length far past the actual bytes
	f.Add(overlong)
	f.Add([]byte("MRSCHWIRE"))
	f.Add(append(frame([]byte("one")), frame([]byte("two"))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var kept []byte // the previous payload's storage, as a connection passes it back
		for {
			payload, err := ReadFrameInto(r, kept)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) &&
					!bytes.Contains([]byte(err.Error()), []byte("wire:")) {
					t.Fatalf("unclassified error: %v", err)
				}
				return // EOF or damage both end the stream; never panic
			}
			// A decoded payload must survive a re-encode round trip.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, payload); err != nil {
				t.Fatalf("re-encode of %d decoded bytes: %v", len(payload), err)
			}
			again, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("round trip changed payload: %d -> %d bytes", len(payload), len(again))
			}
			kept = payload
		}
	})
}
