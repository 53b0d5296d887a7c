package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SampleRequests harvests realistic decision instants for load generation:
// it replays the job trace under FCFS with the daemon's window size,
// capturing every scheduling decision's (queue, cluster) state as a wire
// request. When the replay yields more than max instants they are strided
// down to max, preserving the trace's coverage from empty-cluster start to
// saturated steady state.
func SampleRequests(sys cluster.Config, jobs []*job.Job, window, max int) ([]Request, error) {
	var reqs []Request
	fcfs := sched.PickerFunc(func(ctx *sched.PickContext) int {
		reqs = append(reqs, RequestFromContext(ctx))
		return 0
	})
	s := sim.New(sys, sched.NewWindowPolicy(fcfs, window))
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		return nil, fmt.Errorf("serve: sampling requests: %w", err)
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("serve: sampling requests: %w", err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: the trace produced no scheduling decisions")
	}
	if max > 0 && len(reqs) > max {
		sampled := make([]Request, max)
		for i := range sampled {
			sampled[i] = reqs[i*len(reqs)/max]
		}
		reqs = sampled
	}
	return reqs, nil
}

// LoadgenOptions configure one load-generation run.
type LoadgenOptions struct {
	// Addr is the daemon's TCP address.
	Addr string
	// Clients is the number of concurrent synchronous clients (default 1).
	Clients int
	// PerClient is the number of requests each client issues (default 100).
	PerClient int
	// Rate is each client's target request rate in requests/second; 0
	// replays closed-loop (next request immediately after the previous
	// answer).
	Rate float64
	// Trace is the request pool; client k starts at offset k·len/Clients
	// and wraps, so concurrent clients exercise different states.
	Trace []Request
}

// LatencyMs summarizes a latency distribution in milliseconds.
type LatencyMs struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

// LoadgenResult is one run's scorecard.
type LoadgenResult struct {
	Clients         int       `json:"clients"`
	Decisions       int       `json:"decisions"`
	Errors          int       `json:"errors"`
	ElapsedSec      float64   `json:"elapsed_sec"`
	DecisionsPerSec float64   `json:"decisions_per_sec"`
	Latency         LatencyMs `json:"latency"`
}

// RunLoadgen replays the trace against a live daemon from N concurrent
// clients and reports decision throughput and latency percentiles.
func RunLoadgen(opt LoadgenOptions) (LoadgenResult, error) {
	if opt.Clients <= 0 {
		opt.Clients = 1
	}
	if opt.PerClient <= 0 {
		opt.PerClient = 100
	}
	if len(opt.Trace) == 0 {
		return LoadgenResult{}, fmt.Errorf("serve: loadgen needs a non-empty trace")
	}

	type clientStats struct {
		errors int
		err    error // fatal (connection-level) failure
	}
	// All clients record round-trip times into one shared concurrent
	// histogram; quantile extraction keeps the nearest-rank convention of
	// the retired sort-based percentiles (see telemetry.HistSnapshot).
	var lat telemetry.Histogram
	stats := make([]clientStats, opt.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < opt.Clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &stats[k]
			c, err := Dial(opt.Addr)
			if err != nil {
				st.err = err
				return
			}
			defer c.Close()
			var interval time.Duration
			if opt.Rate > 0 {
				interval = time.Duration(float64(time.Second) / opt.Rate)
			}
			next := time.Now()
			offset := k * len(opt.Trace) / opt.Clients
			for i := 0; i < opt.PerClient; i++ {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				req := &opt.Trace[(offset+i)%len(opt.Trace)]
				t0 := time.Now()
				pick, _, err := c.Decide(req)
				if err != nil {
					if _, ok := err.(*RequestError); ok {
						st.errors++
						continue
					}
					st.err = err
					return
				}
				if pick < 0 || pick >= len(req.Queue) {
					st.errors++
					continue
				}
				lat.RecordDuration(time.Since(t0))
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := LoadgenResult{Clients: opt.Clients, ElapsedSec: elapsed}
	for k := range stats {
		if stats[k].err != nil {
			return res, fmt.Errorf("serve: loadgen client %d: %w", k, stats[k].err)
		}
		res.Errors += stats[k].errors
	}
	snap := lat.Snapshot()
	res.Decisions = int(snap.Count())
	if elapsed > 0 {
		res.DecisionsPerSec = float64(res.Decisions) / elapsed
	}
	const msPerNs = 1 / float64(time.Millisecond)
	res.Latency = LatencyMs{
		P50:  float64(snap.Quantile(0.50)) * msPerNs,
		P99:  float64(snap.Quantile(0.99)) * msPerNs,
		P999: float64(snap.Quantile(0.999)) * msPerNs,
		Max:  float64(snap.Max()) * msPerNs,
	}
	return res, nil
}
