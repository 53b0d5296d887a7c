package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestWorkerRejectsCoordinatorProtocol covers the worker side of the
// bidirectional handshake: a config frame from a coordinator speaking
// another protocol revision is rejected before anything in it is trusted,
// and the error names the peer's version (the operator of a mixed-binary
// deployment needs to know which side to upgrade).
func TestWorkerRejectsCoordinatorProtocol(t *testing.T) {
	coord, work := net.Pipe()
	defer coord.Close()

	errc := make(chan error, 1)
	go func() { errc <- ServeWorker(work, WorkerOptions{}) }()

	// Drain the worker's hello, then answer with a config frame from the
	// future.
	if _, err := readFrame(coord); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	if err := writeFrame(coord, &message{Type: msgConfig, Proto: ProtocolVersion + 41}); err != nil {
		t.Fatalf("writing config: %v", err)
	}
	// The worker reports the mismatch as a fatal frame, then dies.
	m, err := readFrame(coord)
	if err != nil {
		t.Fatalf("reading fatal: %v", err)
	}
	if m.Type != msgFatal {
		t.Fatalf("worker answered %s, want fatal", m.Type)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("ServeWorker accepted a mismatched coordinator protocol")
		}
		for _, want := range []string{fmt.Sprintf("protocol %d", ProtocolVersion+41), fmt.Sprintf("worker %d", ProtocolVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit on protocol mismatch")
	}
}

// TestCoordinatorSendsProtocolVersion pins the config frame to carry the
// coordinator's protocol version — the field the worker-side check reads.
// Without it the worker would see Proto 0 from every healthy coordinator.
// The test plays the worker itself: hello in, config out, then dies; the
// campaign finishes through the in-process fallback.
func TestCoordinatorSendsProtocolVersion(t *testing.T) {
	spec := testSpec(t)
	coordEnd, testEnd := net.Pipe()
	pool := pipePool{1, func(id int) (io.ReadWriteCloser, error) { return coordEnd, nil }}

	var events []Event
	done := make(chan error, 1)
	go func() {
		_, err := Run(spec, experiments.CampaignOptions{Workers: 1}, fastOptions(&events), pool)
		done <- err
	}()

	if err := writeFrame(testEnd, &message{Type: msgHello, Proto: ProtocolVersion}); err != nil {
		t.Fatalf("writing hello: %v", err)
	}
	cfg, err := readFrame(testEnd)
	if err != nil {
		t.Fatalf("reading config: %v", err)
	}
	if cfg.Type != msgConfig {
		t.Fatalf("coordinator answered %s, want config", cfg.Type)
	}
	if cfg.Proto != ProtocolVersion {
		t.Fatalf("config frame carried protocol %d, want %d", cfg.Proto, ProtocolVersion)
	}
	testEnd.Close() // die; the fallback finishes the campaign
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// FuzzDecodeMessage wires distrib's gob message layer to the same shared
// fuzz discipline as wire.FuzzDecodeFrame: arbitrary verified payloads must
// decode or fail loudly with ErrCorruptFrame, never panic. The corpus seeds
// real encoded messages plus the standard damage taxonomy (truncation,
// bitflip, garbage).
func FuzzDecodeMessage(f *testing.F) {
	encode := func(m *message) []byte {
		payload, err := encodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	hello := encode(&message{Type: msgHello, Proto: ProtocolVersion})
	cfg := encode(&message{Type: msgConfig, Proto: ProtocolVersion, Spec: []byte("{}"), Fingerprint: "abc", Worker: 3})
	result := encode(&message{Type: msgResult, Worker: 1, Cell: 7, Fingerprint: "abc"})

	f.Add([]byte(nil))
	f.Add(hello)
	f.Add(cfg)
	f.Add(result)
	f.Add(cfg[:len(cfg)/2])
	bitflip := append([]byte(nil), result...)
	bitflip[len(bitflip)/3] ^= 0x10
	f.Add(bitflip)
	f.Add([]byte("not a gob stream at all"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeMessage(payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode failure %v does not wrap ErrCorruptFrame", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
	})
}
