package distrib

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The fault-injection suite: every test runs a real campaign through the
// real wire protocol — ServeWorker goroutines over net.Pipe ends (pipePool) —
// under a deliberately hostile FaultPlan, and asserts the campaign still
// produces output byte-identical to the uninterrupted single-process
// experiments.RunCampaign (contract rule 9).

// testSpec is a small fcfs-only campaign: two scenario families (one a
// theta-variant, so variant materials resolve on workers too) replicated
// over two seeds — four cells, enough to keep two workers busy.
func testSpec(t *testing.T) scenario.CampaignSpec {
	t.Helper()
	var scs []scenario.ScenarioSpec
	for _, name := range []string{"S2", "S4@ia=1.5"} {
		sp, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sp)
	}
	return scenario.CampaignSpec{
		Name:      "distrib-test",
		Scale:     scenario.TinyScaleSpec(),
		Scenarios: scs,
		Methods:   []scenario.MethodSpec{{Kind: scenario.KindHeuristic}},
		Seeds:     []int64{5, 23},
	}
}

// render produces the campaign's report bytes — the artifact rule 9 requires
// to be identical however the cells were computed.
func render(name string, results []experiments.CellResult) []byte {
	var buf bytes.Buffer
	experiments.FprintCells(&buf, name, results)
	return buf.Bytes()
}

// testPool runs n in-process workers over synchronous pipes. The cleanup
// waits for every ServeWorker goroutine: after Run severs the connections
// they must all come home (a stuck worker is itself a bug).
func testPool(t *testing.T, n int) Pool { return gatedPool(t, n, nil) }

// pipePool is a Pool of n in-process workers: same protocol, same faults, no
// processes.
type pipePool struct {
	n     int
	start func(id int) (io.ReadWriteCloser, error)
}

func (p pipePool) Size() int                                { return p.n }
func (p pipePool) Start(id int) (io.ReadWriteCloser, error) { return p.start(id) }

// gatedPool is testPool whose workers other than worker 0 say hello only
// once gate is closed (nil = at once). The coordinator assigns to whoever is
// ready, so on a loaded host an ungated healthy worker can finish the whole
// grid before worker 0 is handed the cell its fault plan sabotages.
func gatedPool(t *testing.T, n int, gate <-chan struct{}) Pool {
	t.Helper()
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	return pipePool{n, func(id int) (io.ReadWriteCloser, error) {
		coord, work := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id != 0 && gate != nil {
				<-gate
			}
			ServeWorker(work, WorkerOptions{})
		}()
		return coord, nil
	}}
}

// gateOn returns a gate for gatedPool that opens at worker 0's first event of
// the given kind, seen through opt.OnEvent, and release, which opens it if
// the run ends first (gatedPool's cleanup waits for every worker).
func gateOn(opt *Options, kind EventKind) (gate <-chan struct{}, release func()) {
	g := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(g) }) }
	record := opt.OnEvent
	opt.OnEvent = func(ev Event) {
		record(ev)
		if ev.Kind == kind && ev.Worker == 0 {
			release()
		}
	}
	return g, release
}

// fastOptions shrinks every robustness timescale so fault recovery happens
// in milliseconds, and records the scheduling decisions for assertions
// (OnEvent fires on Run's own goroutine — no locking needed).
func fastOptions(events *[]Event) Options {
	return Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		BackoffBase:       time.Millisecond,
		BackoffMax:        5 * time.Millisecond,
		Seed:              1,
		OnEvent:           func(ev Event) { *events = append(*events, ev) },
		// Every test coordinator runs with instruments and a journal
		// active: rule 10 says telemetry cannot perturb scheduling, so the
		// whole fault matrix doubles as its enforcement suite.
		Metrics: telemetry.NewRegistry(),
		Journal: telemetry.NewJournal(io.Discard),
	}
}

func countKind(events []Event, kind EventKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// assertExactlyOnce verifies rule 2 from the event stream: every cell was
// collated exactly once.
func assertExactlyOnce(t *testing.T, events []Event, cells int) {
	t.Helper()
	collated := make(map[int]int)
	for _, ev := range events {
		if ev.Kind == EventResult {
			collated[ev.Cell]++
		}
	}
	for cell, n := range collated {
		if n > 1 {
			t.Errorf("cell %d collated %d times", cell, n)
		}
	}
	if len(collated) > cells {
		t.Errorf("%d distinct cells collated, grid has %d", len(collated), cells)
	}
}

// A fault-free distributed run is byte-identical to the single-process
// campaign (rule 9), with every cell computed remotely exactly once.
func TestRunMatchesInProcess(t *testing.T) {
	spec := testSpec(t)
	ref, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	got, err := Run(spec, experiments.CampaignOptions{Workers: 1}, fastOptions(&events), testPool(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("distributed results differ from in-process RunCampaign")
	}
	if !bytes.Equal(render(spec.Name, ref), render(spec.Name, got)) {
		t.Fatal("distributed report bytes differ from in-process RunCampaign")
	}
	assertExactlyOnce(t, events, len(spec.Expand()))
	if n := countKind(events, EventResult); n != len(spec.Expand()) {
		t.Fatalf("%d results collated, want %d", n, len(spec.Expand()))
	}
	if n := countKind(events, EventFallback); n != 0 {
		t.Fatalf("%d cells fell back in-process in a healthy run", n)
	}
}

// The fault matrix: each sabotage shape from the FaultPlan harness, injected
// into worker 0, must end with a report byte-identical to the uninterrupted
// single-process run — and the coordinator must have visibly survived it
// (the expected scheduling events appear).
func TestFaultInjectionMatrix(t *testing.T) {
	spec := testSpec(t)
	cells := len(spec.Expand())
	ref, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := render(spec.Name, ref)

	cases := []struct {
		name  string
		plan  FaultPlan
		kinds []EventKind
		// gate is the worker-0 event that lets the healthy worker join
		// (EventAssign when unset).
		gate EventKind
	}{
		// Worker dies the instant its first cell arrives (rule 4 → 6).
		{"kill_at_cell", FaultPlan{KillAtCell: 1}, []EventKind{EventWorkerDead, EventRequeue}, ""},
		// Worker evaluates, then dies before sending — the work is lost and
		// must be redone elsewhere.
		{"kill_after_eval", FaultPlan{KillAfterEval: 1}, []EventKind{EventWorkerDead, EventRequeue}, ""},
		// Worker stays alive but falls silent: only the heartbeat timeout
		// can reclaim its cell (rule 4).
		{"heartbeat_mute", FaultPlan{MuteAtCell: 1}, []EventKind{EventTimeout, EventRequeue}, ""},
		// Result frame arrives whole but damaged (checksum mismatch): the
		// peer is corrupt, sever and requeue (rule 5).
		{"corrupt_result", FaultPlan{CorruptResult: 1}, []EventKind{EventCorrupt, EventRequeue}, ""},
		// Crash mid-write: a truncated frame is damage, not data (rule 5).
		{"truncate_result", FaultPlan{TruncateResult: 1}, []EventKind{EventCorrupt, EventRequeue}, ""},
		// The same result delivered twice: the second copy is dropped
		// (rule 2). The healthy worker joins only once the first copy is
		// collated: were it to finish every other cell before that, the run
		// would end with the second copy still unread.
		{"duplicate_result", FaultPlan{DuplicateResult: 1}, []EventKind{EventDuplicate}, EventResult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var events []Event
			opt := fastOptions(&events)
			opt.Faults = Faults{0: tc.plan}
			// The healthy worker joins once the sabotaged one holds a cell
			// (or the run is over), so the fault always has a cell to hit.
			kind := tc.gate
			if kind == "" {
				kind = EventAssign
			}
			gate, release := gateOn(&opt, kind)
			defer release()
			got, err := Run(spec, experiments.CampaignOptions{Workers: 1}, opt, gatedPool(t, 2, gate))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, render(spec.Name, got)) {
				t.Fatal("report after fault injection differs from the uninterrupted single-process run")
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatal("results after fault injection differ from the uninterrupted single-process run")
			}
			assertExactlyOnce(t, events, cells)
			for _, kind := range tc.kinds {
				if countKind(events, kind) == 0 {
					t.Errorf("fault never surfaced: no %s event in %v", kind, events)
				}
			}
		})
	}
}

// Exactly-once training (rule 7): the coordinator resolves the family model
// once, before distribution; a worker killed after evaluating a trained
// cell forces a retry that must reload the stored model, never retrain. A
// second campaign against the same store trains zero models.
func TestExactlyOnceTraining(t *testing.T) {
	sp, err := scenario.ByName("S2")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.CampaignSpec{
		Name:      "distrib-trained",
		Scale:     scenario.TinyScaleSpec(),
		Scenarios: []scenario.ScenarioSpec{sp},
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindMRSch, Train: true},
			{Kind: scenario.KindHeuristic},
		},
	}
	store := t.TempDir()
	counts := func(trained, cached *int) experiments.CampaignOptions {
		return experiments.CampaignOptions{
			Workers:  1,
			ModelDir: store,
			OnModel: func(family, action, path string) {
				switch action {
				case "trained":
					*trained++
				case "cached":
					*cached++
				}
			},
		}
	}

	refStore := t.TempDir()
	ref, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1, ModelDir: refStore})
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	opt := fastOptions(&events)
	opt.Faults = Faults{0: {KillAfterEval: 1}}
	// Worker 1 joins once worker 0 holds a cell: ungated, it could evaluate
	// both cells first, and worker 0 would never reach its kill.
	gate, release := gateOn(&opt, EventAssign)
	defer release()
	var trained1, cached1 int
	got1, err := Run(spec, counts(&trained1, &cached1), opt, gatedPool(t, 2, gate))
	if err != nil {
		t.Fatal(err)
	}
	if trained1 != 1 || cached1 != 0 {
		t.Fatalf("first run trained %d, cached %d models; want exactly 1 trained (rule 7)", trained1, cached1)
	}
	if countKind(events, EventRequeue) == 0 {
		t.Fatal("the injected kill never forced a retry")
	}
	if !bytes.Equal(render(spec.Name, ref), render(spec.Name, got1)) {
		t.Fatal("distributed trained-campaign report differs from the in-process run")
	}

	// Re-run against the populated store: zero training, byte-identical.
	var events2 []Event
	var trained2, cached2 int
	got2, err := Run(spec, counts(&trained2, &cached2), fastOptions(&events2), testPool(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if trained2 != 0 {
		t.Fatalf("re-run against a populated store trained %d model(s), want 0", trained2)
	}
	if cached2 == 0 {
		t.Fatal("re-run never loaded the stored model")
	}
	if !bytes.Equal(render(spec.Name, got1), render(spec.Name, got2)) {
		t.Fatal("re-run against the same store changed the report")
	}
}

// Rule 8: the pool is an optimization, not a dependency. With no workers at
// all the campaign degrades to in-process evaluation and still matches the
// single-process run; with fallback disabled it fails loudly instead.
func TestEmptyPoolFallsBack(t *testing.T) {
	spec := testSpec(t)
	ref, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	got, err := Run(spec, experiments.CampaignOptions{Workers: 1}, fastOptions(&events), testPool(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("fallback results differ from in-process RunCampaign")
	}
	if n := countKind(events, EventFallback); n != len(spec.Expand()) {
		t.Fatalf("%d fallback events, want one per cell (%d)", n, len(spec.Expand()))
	}

	opt := fastOptions(&events)
	opt.DisableFallback = true
	if _, err := Run(spec, experiments.CampaignOptions{Workers: 1}, opt, testPool(t, 0)); err == nil {
		t.Fatal("empty pool with fallback disabled must fail")
	} else if !strings.Contains(err.Error(), "fallback disabled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// The coordinator owns training; a NoTrain coordinator is a misconfigured
// worker and is rejected up front.
func TestCoordinatorRejectsNoTrain(t *testing.T) {
	if _, err := Run(testSpec(t), experiments.CampaignOptions{NoTrain: true}, Options{}, testPool(t, 0)); err == nil {
		t.Fatal("Run accepted NoTrain")
	}
}
