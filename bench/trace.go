package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the index of the span that caused this one, -1 at the root.
// Times are nanoseconds since the recorder was made.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps a traced run's spans in memory until the run ends. Every
// span is recorded from bench/ around a call into a layer; the layers
// themselves are not instrumented. All recording happens on the goroutine
// that drives the ops (one client, one worker), so there is no lock.
type recorder struct {
	epoch time.Time
	spans []span

	// Ops of the traced cycles, counted by the workload's trace method.
	attempted int
	failed    int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<12)}
}

// reserve makes room for n more spans, so that recording them does not
// reallocate inside a timed pass. A workload calls it once it knows its span
// count; until then the buffer grows by doubling.
func (r *recorder) reserve(n int) { r.spans = slices.Grow(r.spans, n) }

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	r.spans = append(r.spans, span{
		Name:   name,
		Start:  int64(start.Sub(r.epoch)),
		End:    int64(end.Sub(r.epoch)),
		Parent: parent,
		Op:     op,
	})
	return len(r.spans) - 1
}

// open records a span that is still running, so children can name it as
// their parent; close sets its end.
func (r *recorder) open(name string, parent, op int) int {
	now := time.Now()
	return r.add(name, parent, op, now, now)
}

func (r *recorder) close(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, op int, fn func()) {
	t0 := time.Now()
	fn()
	r.add(name, parent, op, t0, time.Now())
}

// durationsUs returns the duration of every span called name, in µs.
func (r *recorder) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, micros(s.End-s.Start))
		}
	}
	return out
}

// selfUs returns, for every span called name, its duration minus the part
// its direct children cover, in µs. Children of one parent never overlap
// here (each op runs on one goroutine).
func (r *recorder) selfUs(name string) []float64 {
	covered := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, micros(s.End-s.Start-covered[i]))
		}
	}
	return out
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}

// stamps is what a stampConn saw since the last take.
type stamps struct {
	firstWrite time.Time // before the first Write was issued
	lastWrite  time.Time // before the last Write was issued
	readEnd    time.Time // after the last Read returned
	wrote      int
	read       int
}

// stampConn timestamps the traffic of one connection from outside the serve
// package. A write is stamped before it is issued — on loopback the peer can
// have read the bytes before the writer's syscall returns — and a read after
// it returns, so a stamp always exists before the peer can see the bytes'
// effect: the single closed-loop client may take() both ends' stamps as soon
// as its Decide returns, and consecutive stamps along a round trip are
// ordered in time.
type stampConn struct {
	net.Conn
	mu sync.Mutex
	s  stamps
}

func (c *stampConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	if c.s.firstWrite.IsZero() {
		c.s.firstWrite = now
	}
	c.s.lastWrite = now
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.s.wrote += n
	c.mu.Unlock()
	return n, err
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.mu.Lock()
	c.s.readEnd = now
	c.s.read += n
	c.mu.Unlock()
	return n, err
}

// take returns the stamps since the last take and clears them.
func (c *stampConn) take() stamps {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	c.s = stamps{}
	return s
}

// stampListener hands the server stamped connections and keeps them for the
// benchmark to read.
type stampListener struct {
	net.Listener
	accepted chan *stampConn // buffered for the one client this benchmark dials
}

func newStampListener(ln net.Listener) *stampListener {
	return &stampListener{Listener: ln, accepted: make(chan *stampConn, 1)}
}

func (l *stampListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stampConn{Conn: conn}
	select {
	case l.accepted <- sc:
	default: // a second connection: serve it, but nobody reads its stamps
	}
	return sc, nil
}
