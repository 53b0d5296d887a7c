package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/wire"
)

// codecLoop is what one decide costs outside the socket and the forward
// pass: the client's encode into its kept frame buffer and the frame's seal,
// then the daemon's verified read into its kept payload buffer, decode into
// recycled scratch and rebuild of the decision instant there. A bytes.Buffer
// stands in for the socket.
type codecLoop struct {
	sys    cluster.Config
	window int
	stream bytes.Buffer
	fw     frameWriter
	frame  []byte
	p      pending
}

// newCodecLoop returns a loop for the quick-scale system and 64 sampled S4
// decision instants: the requests serve-lone and the load generator replay.
func newCodecLoop(tb testing.TB) (*codecLoop, []Request) {
	tb.Helper()
	sc := experiments.QuickScale()
	m, err := experiments.Prepare(sc)
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := SampleRequests(sc.System(), m.Workload("S4"), sc.Window, 64)
	if err != nil {
		tb.Fatal(err)
	}
	c := &codecLoop{sys: sc.System(), window: sc.Window}
	c.fw.w = &c.stream
	return c, reqs
}

func (c *codecLoop) run(id uint64, req *Request) error {
	if err := c.fw.write(&message{Type: msgDecide, ID: id, Req: *req}); err != nil {
		return err
	}
	payload, err := wire.ReadFrameInto(&c.stream, c.frame)
	if err != nil {
		return err
	}
	c.frame = payload
	if c.p.demands, err = decodeMessage(payload, &c.p.m, c.p.demands); err != nil {
		return err
	}
	return c.p.buildContext(c.sys, c.window)
}

// BenchmarkCodec times the codec loop per decide over the sampled instants;
// warm, it allocates nothing (TestWarmCodecPathAllocatesNothing holds it to
// that), and request-bytes is the frame a decide travels in.
func BenchmarkCodec(b *testing.B) {
	loop, reqs := newCodecLoop(b)
	var frameBytes int
	for i := range reqs { // warm every buffer on the whole cycle
		if err := loop.run(uint64(i), &reqs[i]); err != nil {
			b.Fatal(err)
		}
		frameBytes += wire.HeaderBytes + len(loop.frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := loop.run(uint64(n), &reqs[n%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frameBytes)/float64(len(reqs)), "request-bytes")
}

// BenchmarkDecisionsPerSec measures the engine's decision throughput at
// the admission batch sizes the daemon actually dispatches: the per-batch
// forward-pass amortization is the whole point of admission batching.
func BenchmarkDecisionsPerSec(b *testing.B) {
	sys := testSystem()
	rng := rand.New(rand.NewSource(61))
	const total = 64
	ctxs := make([]*sched.PickContext, total)
	for i := range ctxs {
		req := randomRequest(rng, sys)
		ctx, err := buildContext(sys, 6, &req)
		if err != nil {
			b.Fatal(err)
		}
		ctxs[i] = ctx
	}
	eng := newEngine(testAgent(sys, 21).Model())
	for _, bs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			var dst []int
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				lo := (n * bs) % total
				if lo+bs > total {
					lo = 0
				}
				dst, _ = eng.decide(ctxs[lo:lo+bs], dst)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*bs)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}
