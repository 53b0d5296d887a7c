package distrib

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// The wire format: one gob-encoded message value per internal/wire frame
// (uint32 big-endian length, uint32 CRC-32 IEEE, payload). Each payload is
// its own gob stream, so a single damaged frame is detectable (CRC or gob
// failure) without desynchronizing a healthy stream, and a truncated frame
// surfaces as an unexpected EOF. Either way the receiver treats the peer as
// corrupt (contract rule 5): there is no in-band resynchronization, the
// connection is abandoned and the peer's in-flight work requeued. The frame
// codec itself lives in internal/wire and is shared with the decision service
// (internal/serve); the payload encoding is not. serve left gob for a fixed
// binary layout because it pays the encoding once per scheduling decision;
// this protocol keeps wire.EncodeGob/DecodeGob deliberately: it sends one
// frame per campaign cell, seconds of simulation apart, its messages carry
// metrics.Report and FaultPlan, which change with the experiments and would
// each need a hand-kept layout, and no committed workload measures its
// traffic — there is no number a second layout here could be held to. This
// file owns only the message type.

// ProtocolVersion gates the handshake — in both directions: the coordinator
// rejects a worker hello carrying another version, and the worker rejects a
// config frame carrying another version, each naming the peer's version in
// the error. Two binaries built from different protocol revisions refuse to
// pair instead of mis-decoding each other's frames. Version 2 dropped the
// config frame's rollout worker count, which no model-store key holds
// anymore.
const ProtocolVersion = 2

// ErrCorruptFrame marks a frame whose length, checksum, or encoding is
// damaged. The coordinator maps it to worker death (rule 5). It aliases
// wire.ErrCorruptFrame so errors.Is matches across both packages.
var ErrCorruptFrame = wire.ErrCorruptFrame

type msgType uint8

const (
	// msgHello (worker → coordinator) opens the handshake.
	msgHello msgType = iota + 1
	// msgConfig (coordinator → worker) carries the campaign and the
	// worker's runtime settings; sent exactly once, before any assignment.
	msgConfig
	// msgAssign (coordinator → worker) assigns one grid cell.
	msgAssign
	// msgResult (worker → coordinator) returns one evaluated cell.
	msgResult
	// msgHeartbeat (worker → coordinator) proves liveness between results.
	msgHeartbeat
	// msgFatal (worker → coordinator) reports an unrecoverable worker-side
	// setup error (e.g. the campaign spec failed to load) before death.
	msgFatal
	// msgShutdown (coordinator → worker) ends a drained worker cleanly.
	msgShutdown
)

func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgConfig:
		return "config"
	case msgAssign:
		return "assign"
	case msgResult:
		return "result"
	case msgHeartbeat:
		return "heartbeat"
	case msgFatal:
		return "fatal"
	case msgShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("msgType(%d)", uint8(t))
}

// message is the single payload type of every frame; which fields are
// meaningful depends on Type. One struct keeps the protocol boring: no
// per-type decoders, no partial decodes.
type message struct {
	Type msgType

	// Hello and Config: protocol version of the sending binary. Both sides
	// of the handshake validate it and name the peer's version on mismatch.
	Proto int

	// Config: the campaign spec in canonical Dump JSON, its fingerprint,
	// the model-store directory, the worker's id and fault plan, the
	// coordinator's training mode (the model-store key depends on it), and
	// the heartbeat cadence.
	Spec            []byte
	Fingerprint     string
	ModelDir        string
	Worker          int
	Plan            FaultPlan
	Pipelined       bool
	HeartbeatMillis int64

	// Assign and Result: the cell's expansion index. Results echo the
	// config fingerprint so a coordinator never collates a result computed
	// against a different grid.
	Cell int
	// Result: exactly one of Report (success) or CellErr (a deterministic
	// evaluation failure — terminal, never retried; rule 3).
	Report  metrics.Report
	CellErr string

	// Fatal: the worker-side setup error.
	Err string
}

// writeFrame encodes m and writes it as one frame. Writers serialize frames
// themselves (the worker interleaves results and heartbeats from two
// goroutines behind a mutex).
func writeFrame(w io.Writer, m *message) error {
	payload, err := encodeMessage(m)
	if err != nil {
		return err
	}
	return wire.WriteFrame(w, payload)
}

// encodeMessage gob-encodes one message as an independent stream.
func encodeMessage(m *message) ([]byte, error) {
	payload, err := wire.EncodeGob(m)
	if err != nil {
		return nil, fmt.Errorf("distrib: %s frame: %w", m.Type, err)
	}
	return payload, nil
}

// readFrame reads and decodes one frame. io.EOF passes through untouched so
// callers can distinguish a clean close from damage; any length, checksum,
// or decode problem wraps ErrCorruptFrame.
func readFrame(r io.Reader) (*message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(payload)
}

// decodeMessage decodes one verified frame payload into a message; gob
// damage wraps ErrCorruptFrame like any other frame corruption. It is the
// layer the shared FuzzDecodeFrame corpus drives for this protocol.
func decodeMessage(payload []byte) (*message, error) {
	var m message
	if err := wire.DecodeGob(payload, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
