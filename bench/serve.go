package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveLone is one closed-loop client against an in-process daemon on
// loopback TCP: a resource manager asks, waits for the answer, asks again.
// The cycle is serveInstants S4 decision instants; every served pick must equal the
// offline core.MRSch.Pick on the same instant, at model version 1.
type serveLone struct {
	cfg config

	sys    cluster.Config
	window int
	agent  *core.MRSch // served; read only through the daemon after set-up
	reqs   []serve.Request
	want   []int // offline picks, computed in set-up, outside every timed op

	srv    *serve.Server
	served chan error
	client *serve.Client

	// Traced runs only: a registry for the daemon's own histograms and
	// stamped connections on both ends of the socket.
	reg          *telemetry.Registry
	cconn, sconn *stampConn
}

// serveInstants caps the cycle: the S4 replay yields 283-368 decisions
// depending on the seed, strided down to this many so that every seed's
// cycle (and warm-up pass) is the same length.
const serveInstants = 256

// daemonConfig is cmd/mrsch-serve's flag defaults, passed explicitly: the
// zero serve.Config disables the admission wait, which is not what a
// deployed daemon runs with.
func daemonConfig(reg *telemetry.Registry) serve.Config {
	return serve.Config{MaxBatch: 16, MaxWait: 200 * time.Microsecond, Metrics: reg}
}

func (s *serveLone) setup() error {
	sc := s.cfg.scale()
	m, err := experiments.Prepare(sc)
	if err != nil {
		return err
	}
	agent, _, err := experiments.TrainMRSch(m, "S4", false)
	if err != nil {
		return err
	}
	s.sys, s.window, s.agent = sc.System(), sc.Window, agent
	if s.reqs, err = serve.SampleRequests(s.sys, m.Workload("S4"), s.window, serveInstants); err != nil {
		return err
	}
	s.want = make([]int, len(s.reqs))
	for i := range s.reqs {
		ctx, err := rebuildContext(s.sys, s.window, &s.reqs[i])
		if err != nil {
			return err
		}
		s.want[i] = agent.Pick(ctx)
	}

	if s.srv, err = serve.NewServer(agent, s.sys, daemonConfig(s.reg)); err != nil {
		return err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var ln net.Listener = tcp
	var stamped *stampListener
	if s.reg != nil {
		stamped = newStampListener(tcp)
		ln = stamped
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()

	if stamped == nil {
		s.client, err = serve.Dial(tcp.Addr().String())
	} else {
		var conn net.Conn
		if conn, err = net.Dial("tcp", tcp.Addr().String()); err == nil {
			s.cconn = &stampConn{Conn: conn}
			if s.client, err = serve.NewClient(s.cconn); err != nil {
				conn.Close()
			}
		}
	}
	if err != nil {
		return err
	}
	if stamped != nil {
		s.sconn = <-stamped.accepted // the handshake completed, so it was accepted
	}
	if v := s.client.ModelVersion(); v != 1 {
		return fmt.Errorf("daemon greets with model version %d, want 1", v)
	}
	for i := range s.reqs { // warm-up pass; the measured window counts failures
		_ = s.op(i)
	}
	return nil
}

func (s *serveLone) teardown() {
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
	if s.srv != nil {
		s.srv.Shutdown()
		<-s.served
		s.srv = nil
	}
}

func (s *serveLone) cycle() int { return len(s.reqs) }

func (s *serveLone) op(i int) error {
	pick, version, err := s.client.Decide(&s.reqs[i])
	if err != nil {
		return err
	}
	if pick != s.want[i] || version != 1 {
		return fmt.Errorf("instant %d: served pick %d at version %d, offline pick %d at version 1", i, pick, version, s.want[i])
	}
	return nil
}

// trace re-does the set-up with a registry and stamped connections (the
// daemon takes both only at construction), then records one span tree per
// round trip:
//
//	serve.rtt
//	├ serve.client_send   Decide called → client issues its last request write
//	├ wire.c2s_transit    → daemon's read of the last request byte returns
//	├ serve.turnaround    → daemon issues its first reply write
//	├ wire.s2c_transit    → client's read of the last reply byte returns
//	└ serve.client_recv   → Decide returns
//
// The five children tile the round trip exactly, so their sum is the rtt by
// construction; the check below is on the medians.
func (s *serveLone) trace(rec *recorder, ref window) (map[string]float64, error) {
	s.teardown()
	s.reg = telemetry.NewRegistry()
	if err := s.setup(); err != nil {
		return nil, err
	}
	s.cconn.take()
	s.sconn.take()
	rec.reserve(6 * traceCycles * len(s.reqs)) // a round trip and the five spans that tile it

	var rtt, passP50, reqBytes, replyBytes []float64
	for c := 0; c < traceCycles; c++ {
		first := len(rtt)
		for i := range s.reqs {
			op := c*len(s.reqs) + i
			rec.attempted++
			t0 := time.Now()
			err := s.op(i)
			t5 := time.Now()
			cs, ss := s.cconn.take(), s.sconn.take()
			if err != nil {
				rec.failed++
				continue
			}
			root := rec.add("serve.rtt", -1, op, t0, t5)
			rec.add("serve.client_send", root, op, t0, cs.lastWrite)
			rec.add("wire.c2s_transit", root, op, cs.lastWrite, ss.readEnd)
			rec.add("serve.turnaround", root, op, ss.readEnd, ss.firstWrite)
			rec.add("wire.s2c_transit", root, op, ss.firstWrite, cs.readEnd)
			rec.add("serve.client_recv", root, op, cs.readEnd, t5)
			rtt = append(rtt, micros(int64(t5.Sub(t0))))
			reqBytes = append(reqBytes, float64(cs.wrote))
			replyBytes = append(replyBytes, float64(cs.read))
		}
		if len(rtt) > first {
			passP50 = append(passP50, median(rtt[first:]))
		}
	}
	if len(rtt) == 0 {
		return nil, fmt.Errorf("no traced round trip succeeded")
	}

	layers := map[string]float64{
		"serve.client_send_us": median(rec.durationsUs("serve.client_send")),
		"wire.c2s_transit_us":  median(rec.durationsUs("wire.c2s_transit")),
		"serve.turnaround_us":  median(rec.durationsUs("serve.turnaround")),
		"wire.s2c_transit_us":  median(rec.durationsUs("wire.s2c_transit")),
		"serve.client_recv_us": median(rec.durationsUs("serve.client_recv")),
		"serve.request_bytes":  median(reqBytes),
		"serve.reply_bytes":    median(replyBytes),
		"serve.rtt_p99_us":     quantile(rtt, 0.99),
		"serve.allocs_per_op":  float64(ref.mem1.Mallocs-ref.mem0.Mallocs) / float64(ref.attempted),
		"trace.overhead_ratio": lowest(passP50) / ref.p50(), // like for like: the least disturbed pass of each
	}
	pieces := layers["serve.client_send_us"] + layers["wire.c2s_transit_us"] + layers["serve.turnaround_us"] +
		layers["wire.s2c_transit_us"] + layers["serve.client_recv_us"]
	if gap := pieces/median(rtt) - 1; gap > 0.05 || gap < -0.05 {
		return nil, fmt.Errorf("client-side spans sum to %.1fµs, round trip is %.1fµs: off by %.1f%%", pieces, median(rtt), 100*gap)
	}

	// The daemon's own histograms split the turnaround: admission wait and
	// batched decide are measured inside, the rest is codec, context
	// rebuild and queue hand-off.
	for _, h := range s.reg.Snapshot().Histograms {
		switch h.Name {
		case "serve_batch_wait_ns":
			layers["serve.batch_wait_us"] = micros(h.P50)
		case "serve_decision_latency_ns":
			layers["serve.decide_us"] = micros(h.P50)
		case "serve_batch_size":
			layers["serve.batch_size_mean"] = h.Mean
		}
	}
	layers["serve.codec_context_us"] = layers["serve.turnaround_us"] - layers["serve.batch_wait_us"] - layers["serve.decide_us"]

	var err error
	if layers["wire.frame_roundtrip_us"], layers["cluster.rebuild_us"], err = replicateWire(s.sys, s.window, s.reqs); err != nil {
		return nil, err
	}
	setupLayers(s.cfg.scale(), rec, layers)
	return layers, nil
}
