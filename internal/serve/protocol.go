package serve

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The serve wire format: one gob-encoded message per internal/wire frame,
// exactly like the distributed-campaign protocol (internal/distrib) — the
// two protocols share the frame codec and differ only in their message
// vocabulary.

// ProtocolVersion gates the handshake in both directions: the daemon rejects
// a hello carrying another version and the client rejects a welcome carrying
// another version, each naming the peer's version in the error.
const ProtocolVersion = 1

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

// message is the single payload type of every frame; which fields are
// meaningful depends on Type. One struct keeps the protocol boring, exactly
// like distrib's.
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

	// Swap: gob-encoded model weights (nn.SaveWeights bytes).
	Weights []byte

	// Any reply: a request-level error. The connection stays usable.
	Err string
}

// writeMessage encodes m and writes it as one frame. Writers serialize
// frames themselves (the server interleaves decisions and swap acks from
// multiple goroutines behind a per-connection mutex).
func writeMessage(w io.Writer, m *message) error {
	payload, err := wire.EncodeGob(m)
	if err != nil {
		return fmt.Errorf("serve: %s frame: %w", m.Type, err)
	}
	return wire.WriteFrame(w, payload)
}

// readMessage reads and decodes one frame. io.EOF passes through untouched;
// any damage wraps ErrCorruptFrame.
func readMessage(r io.Reader) (*message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(payload)
}

// decodeMessage decodes one verified frame payload; gob damage wraps
// ErrCorruptFrame like any other frame corruption. It is the layer
// FuzzDecodeRequest drives.
func decodeMessage(payload []byte) (*message, error) {
	var m message
	if err := wire.DecodeGob(payload, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// buildContext validates a request against the served system and
// reconstructs the decision instant: a live cluster with the request's
// allocations applied, the queue, the window (the queue's first W entries),
// and the measurement vector. Every reconstruction is exact — gob preserves
// float64 bits and the cluster derives Usage from the same integer
// arithmetic the simulator uses — which is what makes served decisions
// byte-identical to offline ones. Validation is exhaustive: anything that
// could panic the encoder is rejected here, with the connection intact —
// NaN and infinite times included (the cluster's ordered running set needs
// comparable keys, and Allocate refuses a running entry that has none).
func buildContext(sys cluster.Config, window int, req *Request) (*sched.PickContext, error) {
	r := len(sys.Capacities)
	if len(req.Queue) == 0 {
		return nil, fmt.Errorf("serve: request has an empty queue; there is nothing to schedule")
	}
	if !finite(req.Now) {
		return nil, fmt.Errorf("serve: request time %v is not finite", req.Now)
	}
	cl := cluster.New(sys)
	for i, a := range req.Running {
		if len(a.Demand) != r {
			return nil, fmt.Errorf("serve: running[%d] demands %d resources, system has %d", i, len(a.Demand), r)
		}
		if err := cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			return nil, fmt.Errorf("serve: request cluster state: %w", err)
		}
	}
	queue := make([]*job.Job, len(req.Queue))
	for i, q := range req.Queue {
		if len(q.Demand) != r {
			return nil, fmt.Errorf("serve: queue[%d] demands %d resources, system has %d", i, len(q.Demand), r)
		}
		if !finite(q.Walltime) || !finite(q.Submit) {
			return nil, fmt.Errorf("serve: queue[%d] walltime %v or submit time %v is not finite", i, q.Walltime, q.Submit)
		}
		queue[i] = &job.Job{ID: i, Submit: q.Submit, Walltime: q.Walltime, Demand: q.Demand}
	}
	w := window
	if w > len(queue) {
		w = len(queue)
	}
	return &sched.PickContext{
		Now:     req.Now,
		Window:  queue[:w],
		Queue:   queue,
		Cluster: cl,
		Usage:   cl.Usage(),
	}, nil
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
