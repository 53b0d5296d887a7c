package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestPipelinedRequestsKeepTheirOwnScratch is the guard against two requests
// in flight sharing scratch: a raw connection writes k decide frames back to
// back before it reads any reply, so the daemon holds k decoded requests of
// one connection at once, and every reply must carry its own ID and the
// offline pick of its own instant.
func TestPipelinedRequestsKeepTheirOwnScratch(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(79))
	const most = 16
	reqs := make([]Request, most)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
	}
	want := offlinePicks(t, testAgent(sys, 19), sys, reqs)

	for _, maxBatch := range []int{1, 4, 16} {
		srv, err := NewServer(testAgent(sys, 19), sys, Config{MaxBatch: maxBatch, MaxWait: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		addr := startServer(t, srv)
		for _, k := range []int{2, 5, most} {
			rwc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeMessage(rwc, &message{Type: msgHello, Proto: ProtocolVersion}); err != nil {
				t.Fatal(err)
			}
			in := bufio.NewReader(rwc)
			if welcome, err := readMessage(in); err != nil || welcome.Err != "" {
				t.Fatalf("handshake: %v %q", err, welcome.Err)
			}
			// Two rounds on the connection, so the second runs in scratch the
			// first one used; IDs say which instant a reply answers.
			for round := 0; round < 2; round++ {
				base := uint64(1000 * (round + 1))
				var burst bytes.Buffer
				for i := 0; i < k; i++ {
					at := (i + round) % most
					if err := writeMessage(&burst, &message{Type: msgDecide, ID: base + uint64(at), Req: reqs[at]}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := rwc.Write(burst.Bytes()); err != nil {
					t.Fatal(err)
				}
				answered := make(map[uint64]bool)
				for i := 0; i < k; i++ {
					m, err := readMessage(in)
					if err != nil {
						t.Fatalf("batch %d, %d in flight: reply %d: %v", maxBatch, k, i, err)
					}
					at := int(m.ID - base)
					if m.Type != msgDecision || m.Err != "" || m.ID < base || at >= most || answered[m.ID] {
						t.Fatalf("batch %d, %d in flight: reply %d is %s id %d err %q", maxBatch, k, i, m.Type, m.ID, m.Err)
					}
					answered[m.ID] = true
					if m.Pick != want[at] || m.ModelVersion != 1 {
						t.Fatalf("batch %d, %d in flight: instant %d served %d at version %d, offline Pick chose %d",
							maxBatch, k, at, m.Pick, m.ModelVersion, want[at])
					}
				}
			}
			rwc.Close()
		}
	}
}

// TestFreeListStaysBounded: after ten thousand round trips from concurrent
// clients the free list holds what was in flight at once, never more than
// maxFreePending; and the scratch of an outsized request is not kept.
func TestFreeListStaysBounded(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(83))
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
	}
	srv, err := NewServer(testAgent(sys, 23), sys, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	const clients, perClient = 4, 2500
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
			for i := 0; i < perClient; i++ {
				if _, _, err := c.Decide(&reqs[(k+i)%len(reqs)]); err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", k, i, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The batcher puts a request's scratch back after writing its reply and
	// before it touches the next request: one more round trip and every
	// earlier put has happened.
	if _, _, err := c.Decide(&reqs[0]); err != nil {
		t.Fatal(err)
	}
	// A reader can take scratch for a client's next request before the
	// batcher has put back the previous one's: two per client at the most.
	if n := len(srv.free); n == 0 || n > 2*clients || n > maxFreePending {
		t.Fatalf("free list holds %d entries after %d round trips from %d clients (bound %d)", n, clients*perClient, clients, maxFreePending)
	}

	for len(srv.free) > 0 {
		<-srv.free
	}
	big := Request{Now: 1, Queue: make([]Job, maxRecycledJobs+1)}
	for i := range big.Queue {
		big.Queue[i] = Job{Demand: []int{1, 1}, Walltime: 60}
	}
	if _, _, err := c.Decide(&big); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decide(&reqs[0]); err != nil { // as above: the outsized request's scratch has been judged
		t.Fatal(err)
	}
	for len(srv.free) > 0 {
		if p := <-srv.free; cap(p.jobs) > maxRecycledJobs {
			t.Fatalf("the free list kept the scratch of a %d-job request", cap(p.jobs))
		}
	}
}

// TestRevisionOneHelloIsDropped pins the limit rule 5 states: a revision-1
// client's hello is a gob stream, not this layout, so the daemon cannot name
// versions to it — it drops the connection and says why in one log line.
func TestRevisionOneHelloIsDropped(t *testing.T) {
	sys := testSystem()
	var mu sync.Mutex
	var lines []string
	srv, err := NewServer(testAgent(sys, 25), sys, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	rwc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rwc.Close()
	gobHello, err := wire.EncodeGob(&message{Type: msgHello, Proto: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(rwc, gobHello); err != nil {
		t.Fatal(err)
	}
	if m, err := readMessage(rwc); err == nil {
		t.Fatalf("the daemon answered a revision-1 hello with a %s frame", m.Type)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "another protocol revision") ||
		!strings.Contains(lines[0], fmt.Sprintf("protocol %d layout", ProtocolVersion)) {
		t.Fatalf("log after a revision-1 hello: %q, want one line naming the layout", lines)
	}
}

// TestWarmCodecPathAllocatesNothing: once its buffers have seen the cycle, a
// decide's whole path outside the socket and the forward pass — encode, seal,
// verified read, decode, instant rebuild — runs in kept storage.
func TestWarmCodecPathAllocatesNothing(t *testing.T) {
	loop, reqs := newCodecLoop(t)
	pass := func() {
		for i := range reqs {
			if err := loop.run(uint64(i), &reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("a warm pass over %d S4 instants allocated %v times, want 0", len(reqs), allocs)
	}
	// The instant rebuilt last is the instant sent.
	last := &reqs[len(reqs)-1]
	if got := RequestFromContext(&loop.p.ctx); describe(&message{Req: got}) != describe(&message{Req: *last}) {
		t.Fatalf("the rebuilt instant differs from the request:\n got %+v\nwant %+v", got, *last)
	}
}
