package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Config tunes the daemon's admission batching.
type Config struct {
	// MaxBatch caps how many concurrent requests coalesce into one batched
	// forward pass (default 16).
	MaxBatch int
	// MaxWait bounds how long the first request of a batch waits for
	// company before the batch is dispatched anyway. There is no default
	// here: zero or negative disables waiting — a batch takes whatever is
	// already queued and dispatches immediately — and the 200µs a deployed
	// daemon waits is cmd/mrsch-serve's -max-wait flag default. The bound is
	// as fine as the runtime's timers: on Linux a wait below a millisecond
	// lasts about 1.1 ms while the process is otherwise idle (doc.go, rule 2).
	MaxWait time.Duration
	// Logf, when set, receives connection-level events (accepts, protocol
	// rejections, swaps). The default is silence.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the daemon's serve_* instruments.
	// Telemetry is observe-only: decisions are byte-identical with and
	// without it (doc.go, rule 7).
	Metrics *telemetry.Registry
	// Journal, when set, receives model lifecycle events (swaps and swap
	// failures) as JSONL.
	Journal *telemetry.Journal
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBatch <= 0 {
		out.MaxBatch = 16
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// serveMetrics caches the daemon's instruments at wire-up time so record
// paths never touch the registry. With a nil registry the instruments are
// live orphans and `timed` is false, skipping the clock reads around the
// forward pass — either way the decision path computes identical picks.
type serveMetrics struct {
	timed           bool
	decisions       *telemetry.Counter
	batches         *telemetry.Counter
	rejected        *telemetry.Counter
	swaps           *telemetry.Counter
	swapFailures    *telemetry.Counter
	batchSize       *telemetry.Histogram
	batchWait       *telemetry.Histogram
	decisionLatency *telemetry.Histogram
	modelVersion    *telemetry.Gauge
	connsActive     *telemetry.Gauge
}

func newServeMetrics(reg *telemetry.Registry) serveMetrics {
	return serveMetrics{
		timed:           reg != nil,
		decisions:       reg.Counter("serve_decisions_total"),
		batches:         reg.Counter("serve_batches_total"),
		rejected:        reg.Counter("serve_requests_rejected_total"),
		swaps:           reg.Counter("serve_swaps_total"),
		swapFailures:    reg.Counter("serve_swap_failures_total"),
		batchSize:       reg.Histogram("serve_batch_size"),
		batchWait:       reg.Histogram("serve_batch_wait_ns"),
		decisionLatency: reg.Histogram("serve_decision_latency_ns"),
		modelVersion:    reg.Gauge("serve_model_version"),
		connsActive:     reg.Gauge("serve_conns_active"),
	}
}

// Server is the decision daemon: it owns a served model and answers
// decision requests from any number of client connections, coalescing
// concurrent requests into batched forward passes. See doc.go for the
// delivery contract.
type Server struct {
	cfg    Config
	eng    *engine
	sys    cluster.Config
	window int
	m      serveMetrics

	admit chan *pending
	free  chan *pending // recycled request scratch, at most maxFreePending

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	inflight sync.WaitGroup // admitted, unanswered decision requests

	batcherDone chan struct{}
	connWG      sync.WaitGroup
}

// pending is one request from the moment its frame is read until its reply
// is written, and the scratch all of that happens in: the decoded message
// with the flat arena its Demand slices are cut from, and the decision
// instant rebuilt from it — job slab, queue view, a cluster that is Reset per
// request, usage vector, context. A pending belongs to exactly one request at
// a time: the connection's reader takes one from the server's free list per
// frame and the batcher (or, for a refusal or a swap, the reader) puts it
// back after the reply, so a connection that pipelines requests holds one per
// request in flight.
type pending struct {
	c *conn

	m       message
	demands []int

	jobs  []job.Job
	queue []*job.Job
	ids   []int // the running job IDs, sorted: the repeated-ID check
	cl    *cluster.Cluster
	usage []float64
	ctx   sched.PickContext
}

const (
	// maxFreePending bounds the free list: four default batches' worth of
	// scratch, a few KB each at the queue depths a scheduling cycle has.
	maxFreePending = 64
	// maxRecycledJobs bounds each entry: the scratch of a request with more
	// queued and running jobs than this is dropped rather than kept, so what
	// the list holds does not depend on the largest request ever served.
	maxRecycledJobs = 1024
)

func (s *Server) getPending(c *conn) *pending {
	select {
	case p := <-s.free:
		p.c = c
		return p
	default:
		return &pending{c: c}
	}
}

func (s *Server) putPending(p *pending) {
	if len(p.m.Req.Queue)+len(p.m.Req.Running) > maxRecycledJobs {
		return
	}
	p.c = nil
	select {
	case s.free <- p:
	default:
	}
}

// conn is one client connection: frames are read by its serveConn goroutine
// alone; the write mutex serializes decision replies (written by the
// batcher) with swap acks and rejections (written by the reader).
type conn struct {
	rwc io.ReadWriteCloser
	fr  frameReader
	wmu sync.Mutex
	fw  frameWriter
}

func newConn(rwc io.ReadWriteCloser) *conn {
	return &conn{rwc: rwc, fr: newFrameReader(rwc), fw: frameWriter{w: rwc}}
}

func (c *conn) send(m *message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.write(m)
}

// NewServer builds a daemon serving the decisions of the agent's model
// (core.MRSch.Model) for the given system. The model reads the agent's
// weights without copying them, so the caller must not change them (train
// or load) while the daemon serves version 1; a swap builds a model of its
// own and writes nothing of the agent's. The daemon keeps nothing else of
// the agent. The system's capacities must match the encoding the agent was
// built with.
func NewServer(agent *core.MRSch, sys cluster.Config, cfg Config) (*Server, error) {
	if len(sys.Capacities) != agent.Enc.Resources() {
		return nil, fmt.Errorf("serve: system has %d resources, the served model encodes %d", len(sys.Capacities), agent.Enc.Resources())
	}
	for r, units := range agent.Enc.Units {
		if sys.Capacities[r] != units {
			return nil, fmt.Errorf("serve: resource %q has %d units, the served model encodes %d", sys.Resources[r], sys.Capacities[r], units)
		}
	}
	eng := newEngine(agent.Model())
	s := &Server{
		cfg:         cfg.withDefaults(),
		eng:         eng,
		sys:         sys,
		window:      agent.Enc.Window,
		m:           newServeMetrics(cfg.Metrics),
		admit:       make(chan *pending, 256),
		free:        make(chan *pending, maxFreePending),
		conns:       make(map[*conn]struct{}),
		batcherDone: make(chan struct{}),
	}
	s.m.modelVersion.Set(float64(eng.modelVersion()))
	go s.batcher()
	return s, nil
}

// ModelVersion reports the currently served model version (1 at startup,
// incremented by each successful swap).
func (s *Server) ModelVersion() uint64 { return s.eng.modelVersion() }

// Swap reads a model file from r (nn.SaveWeights format), atomically
// replaces the served model with it and returns the new model version. The
// current version keeps answering while r is read and loaded (rule 3). On
// error the previous version keeps serving and the returned version is
// unchanged. In-flight requests finish on whichever version their batch
// started with.
func (s *Server) Swap(r io.Reader) (uint64, error) {
	v, err := s.eng.swap(r)
	if err == nil {
		s.cfg.Logf("serve: model swapped, now serving version %d", v)
		s.m.swaps.Inc()
		s.m.modelVersion.Set(float64(v))
		s.cfg.Journal.Event("model_swap", "version", v)
	} else {
		s.m.swapFailures.Inc()
		s.cfg.Journal.Event("model_swap_failed", "serving_version", v, "error", err.Error())
	}
	return v, err
}

// Serve accepts connections on ln until Shutdown, answering decision
// requests. It returns after Shutdown completes (nil) or on a listener
// error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("serve: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		rwc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		c := newConn(rwc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			rwc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown drains the daemon gracefully: stop accepting, answer every
// admitted request, then close connections. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.connWG.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// draining is set, so no request can be admitted anymore: once the
	// in-flight count drains, the admission queue is empty for good.
	s.inflight.Wait()
	close(s.admit)
	<-s.batcherDone

	s.mu.Lock()
	for c := range s.conns {
		c.rwc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// serveConn runs one connection: handshake, then a read loop dispatching
// decide and swap frames until the peer hangs up or corrupts the stream.
func (s *Server) serveConn(c *conn) {
	s.m.connsActive.Add(1)
	defer s.m.connsActive.Add(-1)
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.rwc.Close()
	}()

	var hello message
	payload, err := c.fr.next()
	if err == nil {
		_, err = decodeMessage(payload, &hello, nil)
	}
	if err != nil || hello.Type != msgHello {
		// A revision-1 client lands here: its gob hello is not this layout.
		s.cfg.Logf("serve: dropping connection without a valid hello: %v", err)
		return
	}
	if hello.Proto != ProtocolVersion {
		c.send(&message{
			Type:  msgWelcome,
			Proto: ProtocolVersion,
			Err:   fmt.Sprintf("serve: client speaks protocol %d, server %d", hello.Proto, ProtocolVersion),
		})
		s.cfg.Logf("serve: rejected client speaking protocol %d", hello.Proto)
		return
	}
	welcome := &message{
		Type:         msgWelcome,
		Proto:        ProtocolVersion,
		ModelVersion: s.eng.modelVersion(),
		Window:       s.window,
		Resources:    s.sys.Resources,
		Capacities:   s.sys.Capacities,
	}
	if err := c.send(welcome); err != nil {
		return
	}

	for {
		payload, err := c.fr.next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.cfg.Logf("serve: connection read: %v", err)
			}
			return
		}
		p := s.getPending(c)
		if p.demands, err = decodeMessage(payload, &p.m, p.demands); err != nil {
			s.cfg.Logf("serve: connection read: %v", err)
			return
		}
		switch p.m.Type {
		case msgDecide:
			s.handleDecide(p)
		case msgSwap:
			v, err := s.Swap(bytes.NewReader(p.m.Weights))
			ack := &message{Type: msgSwapped, ID: p.m.ID, ModelVersion: v}
			if err != nil {
				ack.Err = err.Error()
			}
			p.m.Weights = nil // a view of the frame buffer, which the next read reuses
			s.putPending(p)
			if err := c.send(ack); err != nil {
				return
			}
		default:
			s.cfg.Logf("serve: dropping connection after unexpected %s frame", p.m.Type)
			return
		}
	}
}

// handleDecide validates and admits one decoded decision request, or answers
// it with a request-level error leaving the connection intact.
func (s *Server) handleDecide(p *pending) {
	reject := func(err error) {
		s.m.rejected.Inc()
		p.c.send(&message{Type: msgDecision, ID: p.m.ID, Pick: -1, Err: err.Error()})
		s.putPending(p)
	}
	if err := p.buildContext(s.sys, s.window); err != nil {
		reject(err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		reject(fmt.Errorf("serve: server is draining"))
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.admit <- p
}

// batcher is the admission loop: block for the first pending request, then
// coalesce whatever arrives within MaxWait (up to MaxBatch) into one
// batched forward pass.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	var (
		batch []*pending
		ctxs  []*sched.PickContext
		picks []int
	)
	// One timer, re-armed per batch: Stop and Reset leave nothing stale in its
	// channel (the go 1.23 timer semantics go.mod selects).
	timer := time.NewTimer(s.cfg.MaxWait)
	timer.Stop()
	for first := range s.admit {
		// Clock reads happen only here, at observation boundaries, and only
		// when telemetry is wired: they never influence batching or picks.
		var tAdmit time.Time
		if s.m.timed {
			tAdmit = time.Now()
		}
		batch = append(batch[:0], first)
		if s.cfg.MaxWait > 0 {
			timer.Reset(s.cfg.MaxWait)
		wait:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case p, ok := <-s.admit:
					if !ok {
						break wait
					}
					batch = append(batch, p)
				case <-timer.C:
					break wait
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case p, ok := <-s.admit:
					if !ok {
						break drain
					}
					batch = append(batch, p)
				default:
					break drain
				}
			}
		}

		ctxs = ctxs[:0]
		for _, p := range batch {
			ctxs = append(ctxs, &p.ctx)
		}
		var tDecide time.Time
		if s.m.timed {
			tDecide = time.Now()
			s.m.batchWait.RecordDuration(tDecide.Sub(tAdmit))
		}
		var version uint64
		picks, version = s.eng.decide(ctxs, picks)
		if s.m.timed {
			s.m.decisionLatency.RecordDuration(time.Since(tDecide))
		}
		s.m.batches.Inc()
		s.m.batchSize.Record(int64(len(batch)))
		s.m.decisions.Add(uint64(len(batch)))
		for i, p := range batch {
			p.c.send(&message{Type: msgDecision, ID: p.m.ID, Pick: picks[i], ModelVersion: version})
			s.inflight.Done()
			s.putPending(p)
		}
	}
}
