package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The serve wire format: one message per internal/wire frame, in a fixed
// binary layout this file owns (wire's package doc says why the campaign
// protocol, internal/distrib, keeps gob and this one does not). A payload is
//
//	byte 0   the layout, equal to ProtocolVersion
//	byte 1   the message type
//	then     only that type's fields, in the order appendMessage writes them
//
// with every field in one of four forms: a uint64 (IDs, model versions) or a
// count (of elements, or of a string's or the weights' bytes) as a uvarint;
// an int (protocol number, window, capacities, job IDs, demands, the pick) as
// a zig-zag uvarint; a float64 as its 64 IEEE-754 bits, little-endian, so
// NaN payloads, -0 and ±Inf arrive as sent; a string or byte slice as its
// count then its bytes. The layout is canonical: a varint must be minimal, a
// count is checked against the bytes still unread before anything is sized
// from it, and bytes left over after the last field are corruption — so
// decoding then encoding returns the payload byte for byte, and a slice with
// no elements has one encoding, nil or not. Every decoding failure wraps
// ErrCorruptFrame.

// ProtocolVersion gates the handshake in both directions: the daemon rejects
// a hello carrying another version and the client rejects a welcome carrying
// another version, each naming the peer's version in the error. It is also
// the layout byte every payload starts with: revision 1 was a gob stream per
// frame, which a revision-2 peer cannot read and refuses as a corrupt frame
// (doc.go, rule 5).
const ProtocolVersion = 2

// ErrCorruptFrame aliases wire.ErrCorruptFrame for errors.Is across layers.
var ErrCorruptFrame = wire.ErrCorruptFrame

type msgType uint8

const (
	// msgHello (client → server) opens the handshake.
	msgHello msgType = iota + 1
	// msgWelcome (server → client) answers it with the protocol version,
	// model version, and decision geometry (or a refusal in Err).
	msgWelcome
	// msgDecide (client → server) asks for one scheduling decision.
	msgDecide
	// msgDecision (server → client) answers one msgDecide by ID. A
	// request-level failure travels in Err with the connection intact.
	msgDecision
	// msgSwap (client → server) is the admin frame: publish new model
	// weights without dropping a single request.
	msgSwap
	// msgSwapped (server → client) acknowledges a swap with the new model
	// version (or the load error, with the previous model still serving).
	msgSwapped
)

func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgWelcome:
		return "welcome"
	case msgDecide:
		return "decide"
	case msgDecision:
		return "decision"
	case msgSwap:
		return "swap"
	case msgSwapped:
		return "swapped"
	}
	return fmt.Sprintf("msgType(%d)", uint8(t))
}

// Job is one queued job as the wire carries it: exactly the fields the
// state encoding and the Eq. (1) goal vector consume.
type Job struct {
	Demand   []int
	Walltime float64 // user-supplied runtime estimate, seconds
	Submit   float64 // submission time, seconds from trace start
}

// Alloc is one running job's holdings. JobID matters: the encoder orders
// running allocations by (EstEnd, JobID), so the daemon must reproduce the
// client's IDs to reproduce the client's encoding.
type Alloc struct {
	JobID  int
	Demand []int
	Start  float64
	EstEnd float64
}

// Request is one decision instant: "here is the queue and the cluster
// state, what do I schedule next?". Queue is the FULL waiting queue in
// queue order — the goal vector weighs every queued job, not just the
// window; the daemon takes the window as the queue's first W entries (W
// fixed by the served model). The answer indexes into that window.
type Request struct {
	Now     float64
	Queue   []Job
	Running []Alloc
}

// message is the single in-memory form of every frame; which fields are
// meaningful — and travel — depends on Type. One struct keeps the protocol
// boring, exactly like distrib's.
type message struct {
	Type msgType

	// Hello and Welcome: protocol version of the sending binary.
	Proto int

	// Welcome: the served model's version and decision geometry, so a
	// client can validate its cluster model before asking anything.
	ModelVersion uint64
	Window       int
	Resources    []string
	Capacities   []int

	// Decide and Decision: the request ID (echoed), the request, and the
	// decision — a window index and the model version that produced it.
	ID   uint64
	Req  Request
	Pick int

	// Swap: opaque model weights (nn.SaveWeights bytes).
	Weights []byte

	// Any reply: a request-level error. The connection stays usable.
	Err string
}

// appendMessage appends m's payload to b: the layout byte, the type byte and
// the fields of m.Type, nothing else.
func appendMessage(b []byte, m *message) ([]byte, error) {
	b = append(b, ProtocolVersion, byte(m.Type))
	switch m.Type {
	case msgHello:
		b = appendInt(b, m.Proto)
	case msgWelcome:
		b = appendInt(b, m.Proto)
		b = binary.AppendUvarint(b, m.ModelVersion)
		b = appendInt(b, m.Window)
		b = binary.AppendUvarint(b, uint64(len(m.Resources)))
		for _, name := range m.Resources {
			b = appendString(b, name)
		}
		b = appendInts(b, m.Capacities)
		b = appendString(b, m.Err)
	case msgDecide:
		b = binary.AppendUvarint(b, m.ID)
		b = appendFloat(b, m.Req.Now)
		b = binary.AppendUvarint(b, uint64(len(m.Req.Queue)))
		for i := range m.Req.Queue {
			q := &m.Req.Queue[i]
			b = appendInts(b, q.Demand)
			b = appendFloat(b, q.Walltime)
			b = appendFloat(b, q.Submit)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Req.Running)))
		for i := range m.Req.Running {
			a := &m.Req.Running[i]
			b = appendInt(b, a.JobID)
			b = appendInts(b, a.Demand)
			b = appendFloat(b, a.Start)
			b = appendFloat(b, a.EstEnd)
		}
	case msgDecision:
		b = binary.AppendUvarint(b, m.ID)
		b = appendInt(b, m.Pick)
		b = binary.AppendUvarint(b, m.ModelVersion)
		b = appendString(b, m.Err)
	case msgSwap:
		b = binary.AppendUvarint(b, m.ID)
		b = binary.AppendUvarint(b, uint64(len(m.Weights)))
		b = append(b, m.Weights...)
	case msgSwapped:
		b = binary.AppendUvarint(b, m.ID)
		b = binary.AppendUvarint(b, m.ModelVersion)
		b = appendString(b, m.Err)
	default:
		return b, fmt.Errorf("serve: no layout for a %s frame", m.Type)
	}
	return b, nil
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendInt(b, v)
	}
	return b
}

// The fewest bytes one element of each counted kind can occupy: what a count
// is held against before anything is sized from it.
const (
	minIntBytes    = 1
	minStringBytes = 1
	minJobBytes    = 1 + 8 + 8     // demand count, walltime, submit
	minAllocBytes  = 1 + 1 + 8 + 8 // job ID, demand count, start, estimated end
)

// decodeMessage decodes one verified frame payload into m, replacing
// everything m held. It reuses the storage of m.Req.Queue and m.Req.Running,
// and the Demand slices it hands out are consecutive pieces of arena, which it
// returns extended — a caller that passes the same m and arena again decodes
// its steady traffic without allocating. m.Weights aliases payload; nothing
// else does. Any departure from the layout wraps ErrCorruptFrame. It is the
// layer FuzzDecodeRequest drives.
func decodeMessage(payload []byte, m *message, arena []int) ([]int, error) {
	*m = message{Req: Request{Queue: m.Req.Queue[:0], Running: m.Req.Running[:0]}}
	arena = arena[:0]
	if len(payload) < 2 || payload[0] != ProtocolVersion {
		return arena, fmt.Errorf("%w: payload is not in the serve protocol %d layout (a peer speaking another protocol revision?)", ErrCorruptFrame, ProtocolVersion)
	}
	m.Type = msgType(payload[1])
	r := reader{b: payload[2:]}
	switch m.Type {
	case msgHello:
		m.Proto = r.int()
	case msgWelcome:
		m.Proto = r.int()
		m.ModelVersion = r.uvarint()
		m.Window = r.int()
		if n := r.count(minStringBytes); n > 0 {
			m.Resources = make([]string, n)
			for i := range m.Resources {
				m.Resources[i] = string(r.bytes())
			}
		}
		m.Capacities, _ = r.ints(nil)
		m.Err = string(r.bytes())
	case msgDecide:
		m.ID = r.uvarint()
		m.Req.Now = r.float()
		m.Req.Queue = resize(m.Req.Queue, r.count(minJobBytes))
		for i := range m.Req.Queue {
			q := &m.Req.Queue[i]
			q.Demand, arena = r.ints(arena)
			q.Walltime = r.float()
			q.Submit = r.float()
		}
		m.Req.Running = resize(m.Req.Running, r.count(minAllocBytes))
		for i := range m.Req.Running {
			a := &m.Req.Running[i]
			a.JobID = r.int()
			a.Demand, arena = r.ints(arena)
			a.Start = r.float()
			a.EstEnd = r.float()
		}
	case msgDecision:
		m.ID = r.uvarint()
		m.Pick = r.int()
		m.ModelVersion = r.uvarint()
		m.Err = string(r.bytes())
	case msgSwap:
		m.ID = r.uvarint()
		m.Weights = r.bytes()
	case msgSwapped:
		m.ID = r.uvarint()
		m.ModelVersion = r.uvarint()
		m.Err = string(r.bytes())
	default:
		r.fail("unknown message type")
	}
	if r.damage == "" && len(r.b) > 0 {
		r.fail("bytes after the last field")
	}
	if r.damage != "" {
		return arena, fmt.Errorf("%w: %s frame: %s", ErrCorruptFrame, m.Type, r.damage)
	}
	return arena, nil
}

// resize returns s with length n, in its own storage when that is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reader consumes a payload field by field. The first departure from the
// layout is recorded in damage and empties the reader: every later read
// returns zero and every later count is zero, so decodeMessage runs to its
// end without a check per field and sizes nothing from a damaged count.
type reader struct {
	b      []byte
	damage string
}

func (r *reader) fail(what string) {
	if r.damage == "" {
		r.damage = what
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("varint is not minimal")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		r.fail("integer does not fit this platform's int")
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a count of elements that occupy at least minBytes each and
// refuses one the unread bytes cannot hold.
func (r *reader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("count exceeds the bytes that follow it")
		return 0
	}
	return int(n)
}

// bytes reads a counted run of bytes, returned as a view of the payload.
func (r *reader) bytes() []byte {
	n := r.count(1)
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// ints reads a counted run of ints onto the end of arena and returns the run
// (capped, so appending to it cannot reach its neighbour) and the extended
// arena. A run handed out earlier stays valid if the arena has to grow: it
// keeps the array it was cut from.
func (r *reader) ints(arena []int) (run, extended []int) {
	n := r.count(minIntBytes)
	start := len(arena)
	for i := 0; i < n; i++ {
		arena = append(arena, r.int())
	}
	return arena[start:len(arena):len(arena)], arena
}

// maxKeptBuffer is the largest frame buffer a connection keeps between
// frames: a swap frame carries a whole model, and a connection that sent or
// received one should not hold that much for the rest of its life.
const maxKeptBuffer = 64 << 10

// frameWriter encodes messages into one buffer it keeps and writes each as
// one frame in one Write. Its user serializes the calls.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func (f *frameWriter) write(m *message) error {
	frame, err := appendMessage(append(f.buf[:0], make([]byte, wire.HeaderBytes)...), m)
	if err != nil {
		return err
	}
	if cap(frame) <= maxKeptBuffer {
		f.buf = frame
	}
	if err := wire.SealFrame(frame); err != nil {
		return fmt.Errorf("serve: %s frame: %w", m.Type, err)
	}
	if _, err := f.w.Write(frame); err != nil {
		return fmt.Errorf("serve: writing %s frame: %w", m.Type, err)
	}
	return nil
}

// frameReader reads a connection's frames through one buffered reader — a
// frame that arrived whole costs one Read — into one payload buffer it keeps.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) frameReader { return frameReader{br: bufio.NewReader(r)} }

// next returns the next frame's verified payload, valid until the call after.
// io.EOF passes through untouched; any damage wraps ErrCorruptFrame.
func (f *frameReader) next() ([]byte, error) {
	if cap(f.buf) > maxKeptBuffer {
		f.buf = nil
	}
	payload, err := wire.ReadFrameInto(f.br, f.buf)
	if err != nil {
		return nil, err
	}
	f.buf = payload
	return payload, nil
}

// buildContext validates the request p was decoded with against the served
// system and reconstructs the decision instant in p's own scratch: its
// cluster, reset and given the request's allocations, its job slab and queue
// view, the window (the queue's first W entries), and the measurement vector —
// warm, without allocating. Every reconstruction is exact — the layout carries
// float64 bits as they are and the cluster derives Usage from the same integer
// arithmetic the simulator uses — which is what makes served decisions
// byte-identical to offline ones. Validation is exhaustive: anything that
// could panic the encoder is rejected here, with the connection intact —
// NaN and infinite times included (the cluster's ordered running set needs
// comparable keys, and Allocate refuses a running entry that has none).
func (p *pending) buildContext(sys cluster.Config, window int) error {
	req := &p.m.Req
	r := len(sys.Capacities)
	if len(req.Queue) == 0 {
		return fmt.Errorf("serve: request has an empty queue; there is nothing to schedule")
	}
	if !finite(req.Now) {
		return fmt.Errorf("serve: request time %v is not finite", req.Now)
	}
	if p.cl == nil {
		p.cl = cluster.New(sys)
	}
	p.cl.Reset()
	for i := range req.Running {
		a := &req.Running[i]
		if len(a.Demand) != r {
			return fmt.Errorf("serve: running[%d] demands %d resources, system has %d", i, len(a.Demand), r)
		}
		if err := p.cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			return fmt.Errorf("serve: request cluster state: %w", err)
		}
	}
	p.jobs = resize(p.jobs, len(req.Queue))
	p.queue = resize(p.queue, len(req.Queue))
	for i := range req.Queue {
		q := &req.Queue[i]
		if len(q.Demand) != r {
			return fmt.Errorf("serve: queue[%d] demands %d resources, system has %d", i, len(q.Demand), r)
		}
		if !finite(q.Walltime) || !finite(q.Submit) {
			return fmt.Errorf("serve: queue[%d] walltime %v or submit time %v is not finite", i, q.Walltime, q.Submit)
		}
		p.jobs[i] = job.Job{ID: i, Submit: q.Submit, Walltime: q.Walltime, Demand: q.Demand}
		p.queue[i] = &p.jobs[i]
	}
	p.usage = p.cl.AppendUsage(p.usage[:0])
	p.ctx = sched.PickContext{
		Now:     req.Now,
		Window:  p.queue[:min(window, len(p.queue))],
		Queue:   p.queue,
		Cluster: p.cl,
		Usage:   p.usage,
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// RequestFromContext converts a live decision instant into its wire form —
// the bridge between an in-process scheduling loop and the daemon, used by
// the load generator's trace capture and the equivalence tests.
func RequestFromContext(ctx *sched.PickContext) Request {
	req := Request{Now: ctx.Now, Queue: make([]Job, len(ctx.Queue))}
	for i, j := range ctx.Queue {
		req.Queue[i] = Job{
			Demand:   append([]int(nil), j.Demand...),
			Walltime: j.Walltime,
			Submit:   j.Submit,
		}
	}
	running := ctx.Cluster.Running()
	req.Running = make([]Alloc, len(running))
	for i, a := range running {
		req.Running[i] = Alloc{
			JobID:  a.JobID,
			Demand: append([]int(nil), a.Demand...),
			Start:  a.Start,
			EstEnd: a.EstEnd,
		}
	}
	return req
}
