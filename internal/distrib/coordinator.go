package distrib

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The coordinator: expands a campaign into cells, shards them over a pool of
// workers, and survives the workers. All scheduling state lives in one
// event-loop goroutine; per-worker reader goroutines only forward frames.

// Pool abstracts where workers come from: spawned processes (ProcPool),
// dialed-in TCP connections (ListenPool), or in-process goroutines over
// pipes (the fault-injection tests' pipePool). Start is called once per
// worker id, sequentially, before distribution begins.
type Pool interface {
	Size() int
	Start(id int) (io.ReadWriteCloser, error)
}

// Options tune the coordinator's robustness machinery. The zero value gets
// sane defaults (500ms heartbeats, 5s liveness timeout, 3 attempts per cell,
// 250ms–10s exponential backoff).
type Options struct {
	// HeartbeatInterval is the cadence workers are told to prove liveness
	// at; HeartbeatTimeout is how long the coordinator waits past the last
	// frame before declaring a worker dead (rule 4).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// CellDeadline bounds one cell evaluation on one worker (0 = no bound).
	// A worker that blows the deadline is severed and its cell requeued.
	CellDeadline time.Duration
	// MaxAttempts bounds distributed attempts per cell; a cell that fails
	// them all is relegated to the in-process fallback (rule 6).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential requeue delay:
	// attempt n waits base<<(n-1) capped at max, halved and jittered.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter (deterministic tests pin it).
	Seed int64
	// DisableFallback turns graceful degradation into a hard error: if the
	// pool empties or a cell exhausts MaxAttempts, Run fails instead of
	// finishing the work in-process.
	DisableFallback bool
	// Faults maps worker id → injected sabotage (tests and the CI smoke).
	Faults Faults
	// OnEvent observes every scheduling decision; Logf gets progress lines.
	OnEvent func(Event)
	Logf    func(format string, args ...any)
	// Metrics, when set, receives the distrib_* counters (heartbeats,
	// assignments, requeues, worker deaths, fallbacks, late results).
	// Telemetry is observe-only and cannot perturb scheduling (rule 10).
	Metrics *telemetry.Registry
	// Journal, when set, mirrors every scheduling Event as one JSONL line
	// (event "distrib_<kind>" with worker/cell/attempt fields).
	Journal *telemetry.Journal
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// EventKind classifies coordinator scheduling events.
type EventKind string

const (
	// EventAssign: a cell was assigned to a worker (Attempt counts from 1).
	EventAssign EventKind = "assign"
	// EventResult: a cell's first valid result arrived and was collated.
	EventResult EventKind = "result"
	// EventDuplicate: a result for an already-collated cell was dropped.
	EventDuplicate EventKind = "duplicate"
	// EventCorrupt: a worker's stream produced a damaged frame (severed).
	EventCorrupt EventKind = "corrupt"
	// EventTimeout: a worker missed its heartbeat or cell deadline (severed).
	EventTimeout EventKind = "timeout"
	// EventWorkerDead: a worker's connection ended (EOF, fatal, write error).
	EventWorkerDead EventKind = "worker-dead"
	// EventRequeue: a dead worker's in-flight cell went back in the queue.
	EventRequeue EventKind = "requeue"
	// EventFallback: a cell was evaluated in-process by the coordinator.
	EventFallback EventKind = "fallback"
	// EventLateResult: a result from a severed (presumed-dead) worker was
	// accepted and collated — the worker resurrected after its sever.
	// Emitted alongside the cell's EventResult for visibility (rule 2's
	// late-acceptance path used to be silent).
	EventLateResult EventKind = "late-result"
)

// Event is one observed scheduling decision. Cell is -1 when the event is
// not about a particular cell.
type Event struct {
	Kind    EventKind
	Worker  int
	Cell    int
	Attempt int
	Err     string
}

// wevent is what a per-worker reader goroutine forwards to the event loop:
// one decoded frame, or the read error that ended the stream.
type wevent struct {
	w   *workerState
	msg *message
	err error
}

type workerState struct {
	id   int
	conn io.ReadWriteCloser

	alive bool
	ready bool // hello seen, config sent
	idle  bool

	cell       int // in-flight cell index, -1 when idle
	attempt    int // attempt number of the in-flight cell
	lastHeard  time.Time
	assignedAt time.Time
}

// pendingCell is a queued (or requeued) cell: attempts already consumed and
// the earliest instant it may be reassigned (backoff; rule 6).
type pendingCell struct {
	cell      int
	attempts  int
	notBefore time.Time
}

// distribMetrics caches the coordinator's counters at wire-up time. With a
// nil registry they are live orphans; either way the event loop schedules
// identically (rule 10).
type distribMetrics struct {
	heartbeats   *telemetry.Counter
	assigns      *telemetry.Counter
	results      *telemetry.Counter
	duplicates   *telemetry.Counter
	requeues     *telemetry.Counter
	workerDeaths *telemetry.Counter
	fallbacks    *telemetry.Counter
	lateResults  *telemetry.Counter
}

func newDistribMetrics(reg *telemetry.Registry) distribMetrics {
	return distribMetrics{
		heartbeats:   reg.Counter("distrib_heartbeats_total"),
		assigns:      reg.Counter("distrib_assigns_total"),
		results:      reg.Counter("distrib_results_total"),
		duplicates:   reg.Counter("distrib_duplicates_total"),
		requeues:     reg.Counter("distrib_requeues_total"),
		workerDeaths: reg.Counter("distrib_worker_deaths_total"),
		fallbacks:    reg.Counter("distrib_fallback_cells_total"),
		lateResults:  reg.Counter("distrib_late_results_total"),
	}
}

type coordinator struct {
	opt  Options
	m    distribMetrics
	run  *experiments.CampaignRun
	spec scenario.CampaignSpec
	fp   string

	cfg message // config template; Worker and Plan filled per worker

	workers  []*workerState
	pending  []pendingCell
	fallback []int

	results []experiments.CellResult
	done    []bool
	failed  map[int]string // terminal per-cell evaluation errors
	nDone   int

	rng      *rand.Rand
	events   chan wevent
	loopDone chan struct{}
}

// Run executes the campaign over the pool and returns results in expansion
// order, byte-identical to what the single-process experiments.RunCampaign
// produces for the same spec and options (rule 9). Family models are
// resolved exactly once, up front, into the content-addressed model store;
// when the campaign has trained methods and copt.ModelDir is empty, a
// temporary store is created for the run and removed afterwards.
func Run(spec scenario.CampaignSpec, copt experiments.CampaignOptions, opt Options, pool Pool) ([]experiments.CellResult, error) {
	opt = opt.withDefaults()
	if copt.NoTrain {
		return nil, fmt.Errorf("distrib: the coordinator trains; NoTrain is for workers")
	}
	if needsModelStore(spec) && copt.ModelDir == "" {
		dir, err := os.MkdirTemp("", "mrsch-distrib-store-")
		if err != nil {
			return nil, fmt.Errorf("distrib: temp model store: %w", err)
		}
		defer os.RemoveAll(dir)
		copt.ModelDir = dir
		opt.Logf("distrib: using temporary model store %s", dir)
	}

	// Exactly-once training (rule 7): every cell resolves here, serially,
	// before any worker sees an assignment. Trained family models land in
	// the store; workers run NoTrain and can only load them.
	run, err := experiments.OpenCampaign(spec, copt)
	if err != nil {
		return nil, err
	}
	cells := run.Cells()
	for _, cell := range cells {
		if err := run.ResolveCell(cell); err != nil {
			return nil, err
		}
	}

	var specBuf strings.Builder
	if err := spec.Dump(&specBuf); err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}

	c := &coordinator{
		opt:  opt,
		m:    newDistribMetrics(opt.Metrics),
		run:  run,
		spec: spec,
		fp:   fp,
		cfg: message{
			Type:            msgConfig,
			Proto:           ProtocolVersion,
			Spec:            []byte(specBuf.String()),
			Fingerprint:     fp,
			ModelDir:        copt.ModelDir,
			Pipelined:       copt.Pipelined,
			HeartbeatMillis: opt.HeartbeatInterval.Milliseconds(),
		},
		results:  make([]experiments.CellResult, len(cells)),
		done:     make([]bool, len(cells)),
		failed:   make(map[int]string),
		rng:      rand.New(rand.NewSource(opt.Seed)),
		events:   make(chan wevent, 64),
		loopDone: make(chan struct{}),
	}
	for i, cell := range cells {
		c.results[i] = experiments.CellResult{Cell: cell}
		c.pending = append(c.pending, pendingCell{cell: i})
	}

	c.startWorkers(pool)
	c.loop()
	c.shutdown()

	if err := c.runFallback(); err != nil {
		return c.results, err
	}
	return c.collate()
}

// needsModelStore reports whether any method trains in-process (an explicit
// Model file is its own store).
func needsModelStore(spec scenario.CampaignSpec) bool {
	for _, m := range spec.Methods {
		if m.Kind.Trained() && m.Model == "" {
			return true
		}
	}
	return false
}

// startWorkers brings up the pool: one connection and one reader goroutine
// per worker. A worker that fails to start is simply absent — the campaign
// degrades rather than aborts (rule 8).
func (c *coordinator) startWorkers(pool Pool) {
	now := time.Now()
	for id := 0; id < pool.Size(); id++ {
		conn, err := pool.Start(id)
		if err != nil {
			c.opt.Logf("distrib: worker %d failed to start: %v", id, err)
			continue
		}
		w := &workerState{id: id, conn: conn, alive: true, cell: -1, lastHeard: now}
		c.workers = append(c.workers, w)
		go func() {
			for {
				m, err := readFrame(w.conn)
				select {
				case c.events <- wevent{w: w, msg: m, err: err}:
				case <-c.loopDone:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// loop is the scheduling event loop: it runs until every cell is collated,
// every remaining cell is relegated to fallback, or the pool is empty.
func (c *coordinator) loop() {
	tick := c.opt.HeartbeatInterval / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for c.nDone < len(c.results) && c.outstanding() > 0 {
		if c.aliveCount() == 0 {
			return // pool empty; the rest runs in-process (rule 8)
		}
		c.dispatch()
		select {
		case ev := <-c.events:
			c.handleEvent(ev)
		case <-ticker.C:
			c.checkTimeouts()
		}
	}
}

// outstanding counts cells still eligible for distribution: queued plus
// in-flight. Cells relegated to fallback are no longer outstanding.
func (c *coordinator) outstanding() int {
	n := len(c.pending)
	for _, w := range c.workers {
		if w.alive && w.cell >= 0 {
			n++
		}
	}
	return n
}

func (c *coordinator) aliveCount() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

func (c *coordinator) handleEvent(ev wevent) {
	w := ev.w
	if ev.err != nil {
		kind := EventWorkerDead
		if errors.Is(ev.err, ErrCorruptFrame) {
			kind = EventCorrupt
		}
		c.workerDead(w, kind, ev.err)
		return
	}
	m := ev.msg
	if !w.alive {
		// A frame that raced the sever. A valid result for an uncollated
		// cell is still a result — first valid result wins, whoever
		// computed it (rule 2) — but a resurrection must not be silent:
		// if the late result collates, announce it (EventLateResult).
		if m.Type == msgResult {
			preDone := c.nDone
			c.handleResult(w, m)
			if c.nDone > preDone {
				c.event(Event{Kind: EventLateResult, Worker: w.id, Cell: m.Cell})
			}
		}
		return
	}
	w.lastHeard = time.Now()
	switch m.Type {
	case msgHello:
		if m.Proto != ProtocolVersion {
			c.workerDead(w, EventWorkerDead,
				fmt.Errorf("distrib: worker %d speaks protocol %d, coordinator %d", w.id, m.Proto, ProtocolVersion))
			return
		}
		cfg := c.cfg
		cfg.Worker = w.id
		cfg.Plan = c.opt.Faults[w.id]
		if err := writeFrame(w.conn, &cfg); err != nil {
			c.workerDead(w, EventWorkerDead, err)
			return
		}
		w.ready = true
		w.idle = true
	case msgHeartbeat:
		// lastHeard already refreshed. Heartbeats are counted but not
		// journaled — they are liveness noise, not scheduling decisions.
		c.m.heartbeats.Inc()
	case msgResult:
		c.handleResult(w, m)
	case msgFatal:
		c.workerDead(w, EventWorkerDead, fmt.Errorf("distrib: worker %d: %s", w.id, m.Err))
	default:
		c.workerDead(w, EventCorrupt, fmt.Errorf("distrib: worker %d sent unexpected %s frame", w.id, m.Type))
	}
}

// handleResult collates one result frame with exactly-once semantics:
// the first valid result for a cell wins, every later copy is dropped
// (rule 2). A result carrying the wrong campaign fingerprint is protocol
// corruption, not data.
func (c *coordinator) handleResult(w *workerState, m *message) {
	if m.Fingerprint != c.fp {
		c.workerDead(w, EventCorrupt,
			fmt.Errorf("distrib: worker %d returned a result for campaign fingerprint %s, want %s", w.id, m.Fingerprint, c.fp))
		return
	}
	cell := m.Cell
	if cell < 0 || cell >= len(c.results) {
		c.workerDead(w, EventCorrupt, fmt.Errorf("distrib: worker %d returned out-of-grid cell %d", w.id, cell))
		return
	}
	if w.alive && w.cell == cell {
		w.cell = -1
		w.idle = true
	}
	if c.done[cell] {
		c.event(Event{Kind: EventDuplicate, Worker: w.id, Cell: cell})
		return
	}
	c.markDone(cell)
	if m.CellErr != "" {
		// Deterministic evaluation failure: retrying elsewhere would fail
		// identically, so it is terminal (rule 3).
		c.failed[cell] = m.CellErr
	} else {
		c.results[cell].Report = m.Report
	}
	c.event(Event{Kind: EventResult, Worker: w.id, Cell: cell, Err: m.CellErr})
}

// markDone collates a cell and retracts any queued or fallback copy of it
// (a late result may land after the cell was requeued).
func (c *coordinator) markDone(cell int) {
	c.done[cell] = true
	c.nDone++
	for i, p := range c.pending {
		if p.cell == cell {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	for i, f := range c.fallback {
		if f == cell {
			c.fallback = append(c.fallback[:i], c.fallback[i+1:]...)
			break
		}
	}
}

// workerDead severs a worker and requeues its in-flight cell (rule 4/5).
func (c *coordinator) workerDead(w *workerState, kind EventKind, err error) {
	if !w.alive {
		return
	}
	w.alive = false
	w.ready = false
	w.idle = false
	w.conn.Close()
	c.event(Event{Kind: kind, Worker: w.id, Cell: w.cell, Err: err.Error()})
	if w.cell >= 0 && !c.done[w.cell] {
		c.requeue(w.cell, w.attempt)
	}
	w.cell = -1
}

// requeue puts a failed attempt's cell back in the queue behind an
// exponential, jittered backoff — or relegates it to the in-process
// fallback once MaxAttempts distributed attempts are spent (rule 6).
func (c *coordinator) requeue(cell, attempts int) {
	if attempts >= c.opt.MaxAttempts {
		c.fallback = append(c.fallback, cell)
		c.event(Event{Kind: EventFallback, Worker: -1, Cell: cell, Attempt: attempts})
		return
	}
	d := c.opt.BackoffBase << uint(attempts-1)
	if d > c.opt.BackoffMax || d <= 0 {
		d = c.opt.BackoffMax
	}
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.pending = append(c.pending, pendingCell{cell: cell, attempts: attempts, notBefore: time.Now().Add(jittered)})
	c.event(Event{Kind: EventRequeue, Worker: -1, Cell: cell, Attempt: attempts})
}

// dispatch hands eligible queued cells to ready idle workers.
func (c *coordinator) dispatch() {
	now := time.Now()
	for _, w := range c.workers {
		if !w.alive || !w.ready || !w.idle {
			continue
		}
		i := -1
		for j, p := range c.pending {
			if !p.notBefore.After(now) {
				i = j
				break
			}
		}
		if i < 0 {
			return
		}
		p := c.pending[i]
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		w.cell = p.cell
		w.attempt = p.attempts + 1
		w.idle = false
		w.assignedAt = now
		if err := writeFrame(w.conn, &message{Type: msgAssign, Cell: p.cell}); err != nil {
			c.workerDead(w, EventWorkerDead, err)
			continue
		}
		c.event(Event{Kind: EventAssign, Worker: w.id, Cell: p.cell, Attempt: w.attempt})
	}
}

// checkTimeouts severs workers that missed their heartbeat window or blew
// the per-cell deadline (rule 4).
func (c *coordinator) checkTimeouts() {
	now := time.Now()
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		switch {
		case now.Sub(w.lastHeard) > c.opt.HeartbeatTimeout:
			c.workerDead(w, EventTimeout,
				fmt.Errorf("distrib: worker %d silent for %v (heartbeat timeout %v)", w.id, now.Sub(w.lastHeard).Round(time.Millisecond), c.opt.HeartbeatTimeout))
		case c.opt.CellDeadline > 0 && w.cell >= 0 && now.Sub(w.assignedAt) > c.opt.CellDeadline:
			c.workerDead(w, EventTimeout,
				fmt.Errorf("distrib: worker %d exceeded the %v cell deadline on cell %d", w.id, c.opt.CellDeadline, w.cell))
		}
	}
}

// shutdown ends surviving workers cleanly and releases the readers.
func (c *coordinator) shutdown() {
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		writeFrame(w.conn, &message{Type: msgShutdown}) // best effort
		w.conn.Close()
		w.alive = false
	}
	close(c.loopDone)
}

// runFallback finishes every uncollated cell in-process, in expansion
// order, on the coordinator's already-resolved run (rule 8) — or reports
// them as an error when fallback is disabled.
func (c *coordinator) runFallback() error {
	var remaining []int
	for i := range c.results {
		if !c.done[i] {
			remaining = append(remaining, i)
		}
	}
	if len(remaining) == 0 {
		return nil
	}
	if c.opt.DisableFallback {
		labels := make([]string, len(remaining))
		for i, cell := range remaining {
			labels[i] = c.results[cell].Cell.Label()
		}
		return fmt.Errorf("distrib: campaign %s: %d cell(s) undone with fallback disabled: %s",
			c.spec.Name, len(remaining), strings.Join(labels, "; "))
	}
	c.opt.Logf("distrib: evaluating %d remaining cell(s) in-process", len(remaining))
	for _, i := range remaining {
		c.event(Event{Kind: EventFallback, Worker: -1, Cell: i})
		cell := c.results[i].Cell
		res, err := c.run.EvalCell(cell)
		c.done[i] = true
		c.nDone++
		if err != nil {
			c.failed[i] = err.Error()
			continue
		}
		c.results[i] = res
	}
	return nil
}

// collate returns the results in expansion order; the error (if any) names
// every terminally failed cell, mirroring experiments.RunCampaign.
func (c *coordinator) collate() ([]experiments.CellResult, error) {
	if len(c.failed) == 0 {
		return c.results, nil
	}
	cells := make([]int, 0, len(c.failed))
	for cell := range c.failed {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	msgs := make([]string, len(cells))
	for i, cell := range cells {
		msgs[i] = fmt.Sprintf("%s: %s", c.results[cell].Cell.Label(), c.failed[cell])
	}
	return c.results, fmt.Errorf("distrib: campaign %s: %d cell(s) failed: %s",
		c.spec.Name, len(cells), strings.Join(msgs, "; "))
}

// event forwards one scheduling decision to the observer, the counters,
// the journal, and the log — every mirror is observe-only (rule 10).
func (c *coordinator) event(ev Event) {
	switch ev.Kind {
	case EventAssign:
		c.m.assigns.Inc()
	case EventResult:
		c.m.results.Inc()
	case EventDuplicate:
		c.m.duplicates.Inc()
	case EventRequeue:
		c.m.requeues.Inc()
	case EventFallback:
		c.m.fallbacks.Inc()
	case EventLateResult:
		c.m.lateResults.Inc()
	case EventCorrupt, EventTimeout, EventWorkerDead:
		c.m.workerDeaths.Inc()
	}
	if ev.Err != "" {
		c.opt.Journal.Event("distrib_"+string(ev.Kind), "worker", ev.Worker, "cell", ev.Cell, "attempt", ev.Attempt, "error", ev.Err)
	} else {
		c.opt.Journal.Event("distrib_"+string(ev.Kind), "worker", ev.Worker, "cell", ev.Cell, "attempt", ev.Attempt)
	}
	if c.opt.OnEvent != nil {
		c.opt.OnEvent(ev)
	}
	if ev.Err != "" {
		c.opt.Logf("distrib: %s worker=%d cell=%d attempt=%d: %s", ev.Kind, ev.Worker, ev.Cell, ev.Attempt, ev.Err)
	} else {
		c.opt.Logf("distrib: %s worker=%d cell=%d attempt=%d", ev.Kind, ev.Worker, ev.Cell, ev.Attempt)
	}
}
