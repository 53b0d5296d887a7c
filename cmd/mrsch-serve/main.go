// Command mrsch-serve is the scheduler-as-a-service decision daemon: it
// loads a trained MRSch model (mrsch-train output) and answers "here is
// the queue and the cluster state, what do I schedule next?" over TCP,
// coalescing concurrent requests into batched forward passes. Served
// decisions are byte-identical to offline core.MRSch decisions for the
// same model and state, at every batch size — see the internal/serve
// package documentation for the full contract.
//
// Usage:
//
//	mrsch-serve -model mrsch-S4.model [-scale quick|standard|tiny] [-listen :7643] [-max-batch 16] [-max-wait 200us]
//
// SIGHUP re-reads -model and hot-swaps the weights without dropping a
// request; clients can do the same remotely over the swap admin frame.
// The daemon drains gracefully on SIGINT/SIGTERM: admitted requests are
// answered before their connections close.
//
// -telemetry-addr ADDR exposes live serving metrics (decision and batch
// counters, batch-size and latency histograms, model version) plus /health
// and pprof over HTTP, and -journal FILE appends model-swap JSONL events;
// both are contract-neutral (serve package doc, rule 7), so served decision
// bytes are identical with or without them.
//
// The same binary is the load generator:
//
//	mrsch-serve -loadgen -connect host:7643 [-clients 4] [-requests 100] [-rate 0] [-workload S1] [-scale quick]
//
// which harvests decision instants from the named workload's trace (FCFS
// replay), replays them from -clients concurrent clients, and prints
// decision throughput with p50/p99/p999 latency as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/nn/kernel"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	model := flag.String("model", "", "trained weights file (mrsch-train output); empty serves the untrained network")
	scaleFlag := flag.String("scale", "quick", "system scale the model was trained at: quick, standard, or tiny")
	listen := flag.String("listen", "127.0.0.1:7643", "TCP listen address")
	maxBatch := flag.Int("max-batch", 16, "max concurrent requests coalesced into one forward pass")
	maxWait := flag.Duration("max-wait", 200*time.Microsecond, "max time the first request of a batch waits for company (0 = no waiting); on Linux a wait below 1ms lasts about 1.1ms while the daemon is otherwise idle")
	loadgen := flag.Bool("loadgen", false, "run as load generator instead of daemon")
	connect := flag.String("connect", "", "loadgen: daemon address to hammer")
	clients := flag.Int("clients", 2, "loadgen: concurrent clients")
	requests := flag.Int("requests", 100, "loadgen: requests per client")
	rate := flag.Float64("rate", 0, "loadgen: per-client request rate in req/s (0 = closed loop)")
	wl := flag.String("workload", "S1", "loadgen: Table III workload whose trace seeds the request pool")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /health, and pprof over HTTP at this address (empty = off)")
	journalPath := flag.String("journal", "", "append daemon events (model swaps) as JSONL to this file (empty = off)")
	flag.Parse()

	scaleSpec, err := scenario.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-serve: %v\n", err)
		os.Exit(2)
	}
	sc := experiments.ScaleFromSpec(scaleSpec)

	if *loadgen {
		if err := runLoadgen(sc, *connect, *clients, *requests, *rate, *wl); err != nil {
			fmt.Fprintf(os.Stderr, "mrsch-serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runDaemon(sc, *model, *listen, *maxBatch, *maxWait, *telemetryAddr, *journalPath); err != nil {
		fmt.Fprintf(os.Stderr, "mrsch-serve: %v\n", err)
		os.Exit(1)
	}
}

// runDaemon serves decisions until SIGINT/SIGTERM, hot-swapping the model
// file on SIGHUP.
func runDaemon(sc experiments.Scale, model, listen string, maxBatch int, maxWait time.Duration, telemetryAddr, journalPath string) error {
	logger := telemetry.NewLogger(os.Stderr, "mrsch-serve")
	// Telemetry is contract-neutral (serve doc rule 7): both knobs are
	// plain opt-ins that cannot perturb decision bytes.
	reg, journal, closeTelemetry, err := telemetry.Open(telemetryAddr, journalPath, logger)
	if err != nil {
		return err
	}
	defer closeTelemetry()
	// The agent must be built with the exact architecture mrsch-train
	// used, or the weight file will not load.
	agent := experiments.NewMRSchUntrained(sc, false)
	if model != "" {
		f, err := os.Open(model)
		if err != nil {
			return err
		}
		err = agent.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", model, err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "mrsch-serve: warning: no -model given, serving the untrained network")
	}
	sys := sc.System()
	srv, err := serve.NewServer(agent, sys, serve.Config{
		MaxBatch: maxBatch,
		MaxWait:  maxWait,
		Metrics:  reg,
		Journal:  journal,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	logger.Event("kernel", "set", kernel.Name(), "features", kernel.Features())
	logger.Event("serving", "system", sys.Name, "addr", ln.Addr(), "window", agent.Enc.Window,
		"model_version", srv.ModelVersion(), "max_batch", maxBatch, "max_wait", maxWait, "kernel", kernel.Name())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		for sig := range sigs {
			if sig != syscall.SIGHUP {
				fmt.Fprintf(os.Stderr, "mrsch-serve: %s, draining\n", sig)
				srv.Shutdown()
				return
			}
			// SIGHUP: re-read the model file and swap without dropping a
			// request. A failed reload keeps the current version serving.
			if model == "" {
				fmt.Fprintln(os.Stderr, "mrsch-serve: SIGHUP ignored: no -model to reload")
				continue
			}
			f, err := os.Open(model)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrsch-serve: reload: %v\n", err)
				continue
			}
			v, err := srv.Swap(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrsch-serve: reload rejected, still serving version %d: %v\n", v, err)
			}
		}
	}()
	return srv.Serve(ln)
}

// runLoadgen replays trace decision instants against a live daemon and
// prints the scorecard as JSON.
func runLoadgen(sc experiments.Scale, connect string, clients, requests int, rate float64, wl string) error {
	if connect == "" {
		return fmt.Errorf("-loadgen requires -connect host:port")
	}
	m, err := experiments.Prepare(sc)
	if err != nil {
		return err
	}
	// Probe the daemon's window so the sampled instants match what it
	// serves.
	probe, err := serve.Dial(connect)
	if err != nil {
		return err
	}
	window := probe.Window()
	probe.Close()
	trace, err := serve.SampleRequests(sc.System(), m.Workload(wl), window, 512)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mrsch-serve: replaying %d sampled decision instants from %s against %s (%d clients x %d requests)\n",
		len(trace), wl, connect, clients, requests)
	res, err := serve.RunLoadgen(serve.LoadgenOptions{
		Addr:      connect,
		Clients:   clients,
		PerClient: requests,
		Rate:      rate,
		Trace:     trace,
	})
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
