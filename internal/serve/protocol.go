package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"

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
// with every field in one of four forms of internal/wire's canonical field
// codec, the one the durable files use: a uint64 (IDs, model versions) or a
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
	// msgSwap (client → server) is the admin frame: swap in new model
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
		b = wire.AppendInt(b, m.Proto)
	case msgWelcome:
		b = wire.AppendInt(b, m.Proto)
		b = wire.AppendUvarint(b, m.ModelVersion)
		b = wire.AppendInt(b, m.Window)
		b = wire.AppendUvarint(b, uint64(len(m.Resources)))
		for _, name := range m.Resources {
			b = wire.AppendString(b, name)
		}
		b = wire.AppendInts(b, m.Capacities)
		b = wire.AppendString(b, m.Err)
	case msgDecide:
		b = wire.AppendUvarint(b, m.ID)
		b = wire.AppendFloat(b, m.Req.Now)
		b = wire.AppendUvarint(b, uint64(len(m.Req.Queue)))
		for i := range m.Req.Queue {
			q := &m.Req.Queue[i]
			b = wire.AppendInts(b, q.Demand)
			b = wire.AppendFloat(b, q.Walltime)
			b = wire.AppendFloat(b, q.Submit)
		}
		b = wire.AppendUvarint(b, uint64(len(m.Req.Running)))
		for i := range m.Req.Running {
			a := &m.Req.Running[i]
			b = wire.AppendInt(b, a.JobID)
			b = wire.AppendInts(b, a.Demand)
			b = wire.AppendFloat(b, a.Start)
			b = wire.AppendFloat(b, a.EstEnd)
		}
	case msgDecision:
		b = wire.AppendUvarint(b, m.ID)
		b = wire.AppendInt(b, m.Pick)
		b = wire.AppendUvarint(b, m.ModelVersion)
		b = wire.AppendString(b, m.Err)
	case msgSwap:
		b = wire.AppendUvarint(b, m.ID)
		b = wire.AppendBytes(b, m.Weights)
	case msgSwapped:
		b = wire.AppendUvarint(b, m.ID)
		b = wire.AppendUvarint(b, m.ModelVersion)
		b = wire.AppendString(b, m.Err)
	default:
		return b, fmt.Errorf("serve: no layout for a %s frame", m.Type)
	}
	return b, nil
}

// The fewest bytes one element of each counted kind can occupy: what a count
// is held against before anything is sized from it.
const (
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
	r := wire.NewReader(payload[2:])
	switch m.Type {
	case msgHello:
		m.Proto = r.Int()
	case msgWelcome:
		m.Proto = r.Int()
		m.ModelVersion = r.Uvarint()
		m.Window = r.Int()
		if n := r.Count(minStringBytes); n > 0 {
			m.Resources = make([]string, n)
			for i := range m.Resources {
				m.Resources[i] = string(r.Bytes())
			}
		}
		m.Capacities, _ = r.Ints(nil)
		m.Err = string(r.Bytes())
	case msgDecide:
		m.ID = r.Uvarint()
		m.Req.Now = r.Float()
		m.Req.Queue = resize(m.Req.Queue, r.Count(minJobBytes))
		for i := range m.Req.Queue {
			q := &m.Req.Queue[i]
			q.Demand, arena = r.Ints(arena)
			q.Walltime = r.Float()
			q.Submit = r.Float()
		}
		m.Req.Running = resize(m.Req.Running, r.Count(minAllocBytes))
		for i := range m.Req.Running {
			a := &m.Req.Running[i]
			a.JobID = r.Int()
			a.Demand, arena = r.Ints(arena)
			a.Start = r.Float()
			a.EstEnd = r.Float()
		}
	case msgDecision:
		m.ID = r.Uvarint()
		m.Pick = r.Int()
		m.ModelVersion = r.Uvarint()
		m.Err = string(r.Bytes())
	case msgSwap:
		m.ID = r.Uvarint()
		m.Weights = r.Bytes()
	case msgSwapped:
		m.ID = r.Uvarint()
		m.ModelVersion = r.Uvarint()
		m.Err = string(r.Bytes())
	default:
		r.Fail("unknown message type")
	}
	if err := r.Finish(); err != nil {
		return arena, fmt.Errorf("%w: %s frame: %v", ErrCorruptFrame, m.Type, err)
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
// comparable keys, and Allocate refuses a running entry that has none), and a
// running job ID given twice (the cluster keeps no index by job, so the
// request is checked itself: its IDs sorted in kept scratch).
func (p *pending) buildContext(sys cluster.Config, window int) error {
	req := &p.m.Req
	r := len(sys.Capacities)
	if len(req.Queue) == 0 {
		return fmt.Errorf("serve: request has an empty queue; there is nothing to schedule")
	}
	if !finite(req.Now) {
		return fmt.Errorf("serve: request time %v is not finite", req.Now)
	}
	p.ids = p.ids[:0]
	for i := range req.Running {
		p.ids = append(p.ids, req.Running[i].JobID)
	}
	slices.Sort(p.ids)
	for i := 1; i < len(p.ids); i++ {
		if p.ids[i] == p.ids[i-1] {
			return fmt.Errorf("serve: running job %d is given twice", p.ids[i])
		}
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
