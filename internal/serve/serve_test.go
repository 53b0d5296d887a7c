package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// testSystem is a small two-resource cluster, fast enough for property
// tests to hammer.
func testSystem() cluster.Config {
	return cluster.Config{Name: "serve-test", Resources: []string{"node", "bb"}, Capacities: []int{12, 8}}
}

// testAgent builds a small deterministic MRSch agent: two calls with the
// same seed produce bitwise-identical weights, which is what lets the tests
// hold an untouched offline twin of the served model.
func testAgent(sys cluster.Config, seed int64) *core.MRSch {
	return core.New(sys, core.Options{
		Window: 6,
		Seed:   seed,
		Mutate: func(c *dfp.Config) {
			c.Workers = 1
			c.StateHidden = []int{24}
			c.StateOut = 12
			c.ModuleHidden = 8
			c.StreamHidden = 12
			c.Offsets = []int{1, 2, 4}
			c.TemporalWeights = []float64{0, 0.5, 1}
		},
	})
}

// randomRequest draws a random but valid decision instant: running jobs
// that fit the cluster, and a queue of 1-10 jobs with arbitrary demands.
func randomRequest(rng *rand.Rand, sys cluster.Config) Request {
	r := len(sys.Capacities)
	now := 10000 + rng.Float64()*100000
	free := append([]int(nil), sys.Capacities...)
	var running []Alloc
	for id := 0; id < rng.Intn(4); id++ {
		d := make([]int, r)
		any := false
		for k := 0; k < r; k++ {
			d[k] = rng.Intn(free[k] + 1)
			any = any || d[k] > 0
		}
		if !any {
			continue
		}
		for k := range d {
			free[k] -= d[k]
		}
		start := now - rng.Float64()*3600
		running = append(running, Alloc{JobID: 100 + id, Demand: d, Start: start, EstEnd: start + rng.Float64()*7200})
	}
	queue := make([]Job, 1+rng.Intn(10))
	for i := range queue {
		d := make([]int, r)
		for k := 0; k < r; k++ {
			d[k] = rng.Intn(sys.Capacities[k] + 1)
		}
		queue[i] = Job{Demand: d, Walltime: 60 + rng.Float64()*7200, Submit: now - rng.Float64()*3600}
	}
	return Request{Now: now, Queue: queue, Running: running}
}

// buildContext rebuilds one request into fresh scratch: what the daemon does
// per decide frame, for tests that want the instant and not the connection.
func buildContext(sys cluster.Config, window int, req *Request) (*sched.PickContext, error) {
	p := &pending{m: message{Req: *req}}
	if err := p.buildContext(sys, window); err != nil {
		return nil, err
	}
	return &p.ctx, nil
}

// writeMessage and readMessage move one message over a raw connection with
// throw-away buffers, for tests that play one side of the protocol by hand.
func writeMessage(w io.Writer, m *message) error {
	return (&frameWriter{w: w}).write(m)
}

func readMessage(r io.Reader) (*message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	m := new(message)
	_, err = decodeMessage(payload, m, nil)
	return m, err
}

// offlinePicks answers every request with an in-process agent — the
// reference the daemon must match bit for bit (contract rule 1).
func offlinePicks(t *testing.T, agent *core.MRSch, sys cluster.Config, reqs []Request) []int {
	t.Helper()
	picks := make([]int, len(reqs))
	for i := range reqs {
		ctx, err := buildContext(sys, agent.Enc.Window, &reqs[i])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		picks[i] = agent.Pick(ctx)
	}
	return picks
}

// startServer runs a daemon on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestEngineDecidesLikePickAtEveryBatchSize is the serve-equivalence
// property at the engine layer with deterministic batch composition: the
// same requests decided in batches of 1, 4, and all-at-once must all equal
// the offline Pick answers.
func TestEngineDecidesLikePickAtEveryBatchSize(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(17))
	const total = 32
	reqs := make([]Request, total)
	ctxs := make([]*sched.PickContext, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &reqs[i])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ctxs[i] = ctx
	}
	want := offlinePicks(t, testAgent(sys, 3), sys, reqs)

	srv, err := NewServer(testAgent(sys, 3), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for _, bs := range []int{1, 4, total} {
		var got []int
		for lo := 0; lo < total; lo += bs {
			hi := lo + bs
			if hi > total {
				hi = total
			}
			picks, version := srv.eng.decide(ctxs[lo:hi], nil)
			if version != 1 {
				t.Fatalf("batch size %d: version %d, want 1", bs, version)
			}
			got = append(got, picks...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch size %d: request %d served %d, offline Pick chose %d", bs, i, got[i], want[i])
			}
		}
	}
}

// The daemon decides through one decider of the agent's model, which reads
// the agent's weights and keeps no copy of them: at the default network
// geometry, NewServer allocates less than one weight vector beyond what a
// decider of an already-built model does. What it adds is the model's packed
// first layer, about half a weight vector here. The decider is measured
// second, so that a weight copy the server made and a decider could share
// would still count against the server.
func TestNewServerHoldsNoWeightCopy(t *testing.T) {
	sys := testSystem()
	m := core.New(sys, core.Options{Window: 6, Seed: 29, Mutate: func(c *dfp.Config) { c.Workers = 1 }})
	weights := 0
	for _, p := range m.Agent.Params() {
		weights += 8 * len(p.Value)
	}
	var srv *Server
	server := allocated(func() {
		var err error
		if srv, err = NewServer(m, sys, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	defer srv.Shutdown()
	model := m.Model()
	decider := allocated(func() { model.BatchDecider() })
	t.Logf("NewServer allocated %d bytes, a decider %d; one weight vector is %d", server, decider, weights)
	if server >= decider+uint64(weights) {
		t.Fatalf("NewServer allocated %d bytes, its decider alone %d; one weight vector is %d", server, decider, weights)
	}
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDaemonMatchesOfflineOverTheWire drives a real daemon over TCP from
// concurrent clients with admission batching live: whatever batches the
// requests coalesce into, every response must equal the offline decision
// for that request. The daemon runs with telemetry instruments active,
// enforcing rule 7 (telemetry is contract-neutral) alongside rule 1.
func TestDaemonMatchesOfflineOverTheWire(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(23))
	const total = 24
	reqs := make([]Request, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
	}
	want := offlinePicks(t, testAgent(sys, 5), sys, reqs)

	reg := telemetry.NewRegistry()
	srv, err := NewServer(testAgent(sys, 5), sys, Config{
		MaxBatch: 4,
		MaxWait:  2 * time.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if c.Window() != 6 {
				errs <- fmt.Errorf("client %d: window %d, want 6", k, c.Window())
				return
			}
			for i := range reqs {
				pick, version, err := c.Decide(&reqs[i])
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", k, i, err)
					return
				}
				if version != 1 {
					errs <- fmt.Errorf("client %d request %d: version %d, want 1", k, i, version)
					return
				}
				if pick != want[i] {
					errs <- fmt.Errorf("client %d request %d: served %d, offline Pick chose %d", k, i, pick, want[i])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The instruments must have observed the run without perturbing it.
	snap := reg.Snapshot()
	m := make(map[string]uint64)
	for _, c := range snap.Counters {
		m[c.Name] = c.Value
	}
	if m["serve_decisions_total"] != clients*total {
		t.Errorf("serve_decisions_total = %d, want %d", m["serve_decisions_total"], clients*total)
	}
	if m["serve_batches_total"] == 0 {
		t.Error("serve_batches_total = 0, want > 0")
	}
	for _, h := range snap.Histograms {
		if h.Name == "serve_batch_size" {
			if h.Count != m["serve_batches_total"] || h.Max > 4 {
				t.Errorf("serve_batch_size: count %d (batches %d), max %d (MaxBatch 4)", h.Count, m["serve_batches_total"], h.Max)
			}
		}
	}
}

// TestHotSwapServesOldOrNewNeverABlend swaps models mid-flight while
// clients hammer the daemon. Every response must be attributable to exactly
// one version — the decision the response's reported version would make
// offline — and after the swap completes the daemon serves the new model.
func TestHotSwapServesOldOrNewNeverABlend(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(29))
	const total = 16
	reqs := make([]Request, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
	}
	// Two models with different seeds; their decisions differ on at least
	// some of the requests (checked below, so the test cannot pass vacuously).
	wantOld := offlinePicks(t, testAgent(sys, 7), sys, reqs)
	wantNew := offlinePicks(t, testAgent(sys, 8), sys, reqs)
	differ := false
	for i := range wantOld {
		differ = differ || wantOld[i] != wantNew[i]
	}
	if !differ {
		t.Fatal("the two test models agree on every request; pick different seeds")
	}
	var newWeights bytes.Buffer
	if err := testAgent(sys, 8).Save(&newWeights); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(testAgent(sys, 7), sys, Config{MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	const clients = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	stop := make(chan struct{})
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (k + round) % total
				pick, version, err := c.Decide(&reqs[i])
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", k, err)
					return
				}
				switch version {
				case 1:
					if pick != wantOld[i] {
						errs <- fmt.Errorf("request %d at version 1 served %d, offline old model chose %d", i, pick, wantOld[i])
						return
					}
				case 2:
					if pick != wantNew[i] {
						errs <- fmt.Errorf("request %d at version 2 served %d, offline new model chose %d", i, pick, wantNew[i])
						return
					}
				default:
					errs <- fmt.Errorf("request %d served by unknown version %d", i, version)
					return
				}
			}
		}(k)
	}

	// Let the clients get going, then swap over the admin frame.
	time.Sleep(10 * time.Millisecond)
	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v, err := admin.Swap(newWeights.Bytes())
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if v != 2 {
		t.Fatalf("swap produced version %d, want 2", v)
	}
	// Post-swap decisions come from the new model.
	for i := range reqs {
		pick, version, err := admin.Decide(&reqs[i])
		if err != nil {
			t.Fatalf("post-swap request %d: %v", i, err)
		}
		if version != 2 || pick != wantNew[i] {
			t.Fatalf("post-swap request %d: version %d pick %d, want version 2 pick %d", i, version, pick, wantNew[i])
		}
	}
	admin.Close()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRejectedSwapKeepsServing feeds the daemon unloadable weights: the
// swap is refused with a request-level error, the version does not move,
// and decisions keep coming from the old model (contract rule 3).
func TestRejectedSwapKeepsServing(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(31))
	req := randomRequest(rng, sys)
	want := offlinePicks(t, testAgent(sys, 9), sys, []Request{req})[0]

	srv, err := NewServer(testAgent(sys, 9), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Swap([]byte("these are not weights"))
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("garbage swap returned %v, want a request-level error", err)
	}
	pick, version, err := c.Decide(&req)
	if err != nil {
		t.Fatalf("decide after refused swap: %v", err)
	}
	if version != 1 || pick != want {
		t.Fatalf("after refused swap: version %d pick %d, want version 1 pick %d", version, pick, want)
	}
}

// TestRequestErrorKeepsConnection sends semantically invalid requests —
// overcommitted cluster state, empty queue, wrong geometry, a running job
// given twice — and expects request-level errors with the connection still
// answering (contract rule 4).
func TestRequestErrorKeepsConnection(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(37))
	good := randomRequest(rng, sys)
	want := offlinePicks(t, testAgent(sys, 11), sys, []Request{good})[0]

	srv, err := NewServer(testAgent(sys, 11), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := []Request{
		{Now: 1, Queue: nil},
		{Now: 1, Queue: []Job{{Demand: []int{999, 999}, Walltime: 60}},
			Running: []Alloc{{JobID: 1, Demand: []int{999, 999}, Start: 0, EstEnd: 100}}},
		{Now: 1, Queue: []Job{{Demand: []int{1}, Walltime: 60}}},
	}
	// Non-finite times: one request per field the daemon reads.
	d := []int{1, 1}
	queue := []Job{{Demand: d, Walltime: 60}}
	for _, t := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			Request{Now: t, Queue: queue},
			Request{Now: 1, Queue: []Job{{Demand: d, Walltime: t}}},
			Request{Now: 1, Queue: []Job{{Demand: d, Walltime: 60, Submit: t}}},
			Request{Now: 1, Queue: queue, Running: []Alloc{{JobID: 1, Demand: d, Start: t, EstEnd: 100}}},
			Request{Now: 1, Queue: queue, Running: []Alloc{{JobID: 1, Demand: d, EstEnd: 100}, {JobID: 2, Demand: d, EstEnd: t}}},
		)
	}
	// One running ID twice, under two estimated ends: the cluster would hold
	// both, so the daemon refuses the request before it rebuilds one.
	repeated := Request{Now: 1, Queue: queue, Running: []Alloc{
		{JobID: 7, Demand: d, EstEnd: 100}, {JobID: 3, Demand: d, EstEnd: 50}, {JobID: 7, Demand: d, EstEnd: 200}}}
	if _, _, err := c.Decide(&repeated); err == nil || !strings.Contains(err.Error(), "running job 7 is given twice") {
		t.Fatalf("a request running job 7 twice returned %v", err)
	}
	for i := range bad {
		_, _, err := c.Decide(&bad[i])
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("bad request %d returned %v, want a request-level error", i, err)
		}
	}
	pick, _, err := c.Decide(&good)
	if err != nil {
		t.Fatalf("good request after rejections: %v", err)
	}
	if pick != want {
		t.Fatalf("good request served %d, offline Pick chose %d", pick, want)
	}
}

// TestHandshakeRejectsProtocolMismatch covers both directions of contract
// rule 5: the daemon names a mismatched client's version, and the client
// names a mismatched daemon's version.
func TestHandshakeRejectsProtocolMismatch(t *testing.T) {
	sys := testSystem()
	srv, err := NewServer(testAgent(sys, 13), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	// Daemon side: a hello from the future is refused, naming both versions.
	rwc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rwc.Close()
	if err := writeMessage(rwc, &message{Type: msgHello, Proto: ProtocolVersion + 7}); err != nil {
		t.Fatal(err)
	}
	welcome, err := readMessage(rwc)
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Err == "" {
		t.Fatal("daemon accepted a mismatched protocol")
	}
	for _, fragment := range []string{"protocol 9", "server 2"} {
		if !strings.Contains(welcome.Err, fragment) {
			t.Fatalf("rejection %q does not contain %q", welcome.Err, fragment)
		}
	}

	// Client side: a welcome from the future is refused, naming both
	// versions. A goroutine plays the time-traveling daemon.
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()
	go func() {
		if _, err := readMessage(srvEnd); err != nil {
			return
		}
		writeMessage(srvEnd, &message{Type: msgWelcome, Proto: ProtocolVersion + 7})
	}()
	_, err = NewClient(cliEnd)
	if err == nil {
		t.Fatal("client accepted a mismatched protocol")
	}
	for _, fragment := range []string{"protocol 9", "client 2"} {
		if !strings.Contains(err.Error(), fragment) {
			t.Fatalf("client rejection %q does not contain %q", err, fragment)
		}
	}
}

// TestShutdownDrains pins contract rule 6's observable half: a served
// request completes, Shutdown closes the connection, and the daemon
// refuses new connections afterwards.
func TestShutdownDrains(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(41))
	req := randomRequest(rng, sys)

	srv, err := NewServer(testAgent(sys, 15), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decide(&req); err != nil {
		t.Fatalf("pre-shutdown decide: %v", err)
	}
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	if _, _, err := c.Decide(&req); err == nil {
		t.Fatal("decide succeeded on a drained daemon")
	}
	c.Close()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded on a drained daemon")
	}
}
