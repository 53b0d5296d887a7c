package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/sched"
)

// TestConcurrentDecideAndSwap is the hot-swap race suite: N reader
// goroutines loop batched decides while the main goroutine swaps in
// alternating weight sets. Run under -race in CI, it proves the engine's
// lock discipline (contract rule 3); its assertions prove version
// atomicity — every batch's decisions match the exact model its reported
// version names, even mid-swap.
func TestConcurrentDecideAndSwap(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(43))
	const total = 12
	reqs := make([]Request, total)
	ctxs := make([]*sched.PickContext, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}

	// Swaps alternate between two weight sets, so version v serves seed 17
	// when odd and seed 18 when even — giving every reader an exact
	// reference for any version it observes.
	wantOdd := offlinePicks(t, testAgent(sys, 17), sys, reqs)
	wantEven := offlinePicks(t, testAgent(sys, 18), sys, reqs)
	var weightsOdd, weightsEven bytes.Buffer
	if err := testAgent(sys, 17).Save(&weightsOdd); err != nil {
		t.Fatal(err)
	}
	if err := testAgent(sys, 18).Save(&weightsEven); err != nil {
		t.Fatal(err)
	}

	eng := newEngine(testAgent(sys, 17).Model())

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	stop := make(chan struct{})
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var dst []int
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (k + round) % total
				hi := lo + 1 + (round % 4)
				if hi > total {
					hi = total
				}
				var version uint64
				dst, version = eng.decide(ctxs[lo:hi], dst)
				want := wantOdd
				if version%2 == 0 {
					want = wantEven
				}
				for i := range dst {
					if dst[i] != want[lo+i] {
						errs <- fmt.Errorf("reader %d: request %d at version %d served %d, that version's model chooses %d",
							k, lo+i, version, dst[i], want[lo+i])
						return
					}
				}
			}
		}(k)
	}

	const swaps = 25
	for n := 0; n < swaps; n++ {
		weights := weightsEven.Bytes() // versions 2, 4, ... serve seed 18
		if n%2 == 1 {
			weights = weightsOdd.Bytes()
		}
		if _, err := eng.swap(bytes.NewReader(weights)); err != nil {
			t.Fatalf("swap %d: %v", n, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := eng.modelVersion(); v != swaps+1 {
		t.Fatalf("after %d swaps the engine serves version %d, want %d", swaps, v, swaps+1)
	}
}

// TestFailedSwapLeavesReadersUntouched races readers against repeated
// refused swaps: garbage, a weights file cut short, and a well-formed file
// of another geometry whose state, measurement and goal modules match the
// served ones, so it fails only at the first stream. Every load fails, and
// a failed load builds no model and installs nothing: every decision keeps
// coming from version 1's model.
func TestFailedSwapLeavesReadersUntouched(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(47))
	const total = 8
	reqs := make([]Request, total)
	ctxs := make([]*sched.PickContext, total)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}
	want := offlinePicks(t, testAgent(sys, 19), sys, reqs)

	eng := newEngine(testAgent(sys, 19).Model())

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	stop := make(chan struct{})
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var dst []int
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var version uint64
				dst, version = eng.decide(ctxs, dst)
				if version != 1 {
					errs <- fmt.Errorf("reader %d: version moved to %d on failed swaps", k, version)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Errorf("reader %d: request %d served %d, want %d", k, i, dst[i], want[i])
						return
					}
				}
			}
		}(k)
	}
	var good, other bytes.Buffer
	if err := testAgent(sys, 23).Save(&good); err != nil {
		t.Fatal(err)
	}
	wide := core.New(sys, core.Options{Window: 6, Seed: 23, Mutate: func(c *dfp.Config) {
		c.StateHidden, c.StateOut, c.ModuleHidden, c.StreamHidden = []int{24}, 12, 8, 20
		c.Offsets, c.TemporalWeights = []int{1, 2, 4}, []float64{0, 0.5, 1}
	}})
	if err := wide.Save(&other); err != nil {
		t.Fatal(err)
	}
	refused := [][]byte{[]byte("junk weights"), good.Bytes()[:good.Len()-1], other.Bytes()}
	for n := 0; n < 30; n++ {
		if _, err := eng.swap(bytes.NewReader(refused[n%len(refused)])); err == nil {
			t.Fatalf("refused swap %d succeeded", n%len(refused))
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gatedReader hands out its bytes only once its gate is open, and closes
// reading at its first Read: a swap given one is blocked inside its load.
type gatedReader struct {
	gate, reading chan struct{}
	once          sync.Once
	r             io.Reader
}

func (g *gatedReader) Read(p []byte) (int, error) {
	g.once.Do(func() { close(g.reading) })
	<-g.gate
	return g.r.Read(p)
}

// TestDecisionsAnsweredWhileSwapLoads holds rule 3's first clause: a swap
// loads outside the lock every batch is decided under. While Server.Swap is
// blocked reading its model file, every request is still answered, by
// version 1, within a timeout; once the file arrives the swap installs
// version 2, and the next batch is answered by it.
func TestDecisionsAnsweredWhileSwapLoads(t *testing.T) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(53))
	reqs := []Request{randomRequest(rng, sys), randomRequest(rng, sys), randomRequest(rng, sys)}
	wantOld := offlinePicks(t, testAgent(sys, 41), sys, reqs)
	wantNew := offlinePicks(t, testAgent(sys, 42), sys, reqs)
	var weights bytes.Buffer
	if err := testAgent(sys, 42).Save(&weights); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testAgent(sys, 41), sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(startServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const timeout = 5 * time.Second
	g := &gatedReader{gate: make(chan struct{}), reading: make(chan struct{}), r: bytes.NewReader(weights.Bytes())}
	release := sync.OnceFunc(func() { close(g.gate) })
	defer release() // a test that fails while the swap waits still lets it finish
	swapped := make(chan error, 1)
	go func() {
		v, err := srv.Swap(g)
		if err == nil && v != 2 {
			err = fmt.Errorf("the swap installed version %d, want 2", v)
		}
		swapped <- err
	}()
	select {
	case <-g.reading:
	case <-time.After(timeout):
		t.Fatal("the swap never read its model file")
	}

	type answer struct {
		pick    int
		version uint64
		err     error
	}
	for i := range reqs {
		answered := make(chan answer, 1)
		go func() {
			pick, version, err := c.Decide(&reqs[i])
			answered <- answer{pick, version, err}
		}()
		select {
		case a := <-answered:
			if a.err != nil {
				t.Fatalf("request %d while the swap loads: %v", i, a.err)
			}
			if a.version != 1 || a.pick != wantOld[i] {
				t.Fatalf("request %d while the swap loads: version %d pick %d, want version 1 pick %d", i, a.version, a.pick, wantOld[i])
			}
		case <-time.After(timeout):
			t.Fatalf("request %d: no answer within %v while a swap was loading: the load holds the decision lock", i, timeout)
		}
	}

	release()
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(timeout):
		t.Fatalf("the swap did not return within %v of its file arriving", timeout)
	}
	for i := range reqs {
		pick, version, err := c.Decide(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if version != 2 || pick != wantNew[i] {
			t.Fatalf("request %d after the swap: version %d pick %d, want version 2 pick %d", i, version, pick, wantNew[i])
		}
	}
}
