package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter must return the same instance per name")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Error("Gauge must return the same instance per name")
	}
	if reg.Histogram("c") != reg.Histogram("c") {
		t.Error("Histogram must return the same instance per name")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind name collision must panic")
			}
		}()
		reg.Gauge("a")
	}()
}

func TestNilRegistryHandsOutLiveInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter must record")
	}
	g := reg.Gauge("x")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Error("nil-registry gauge must record")
	}
	h := reg.Histogram("x")
	h.Record(7)
	if h.Count() != 1 {
		t.Error("nil-registry histogram must record")
	}
	if s := reg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil-registry snapshot must be empty")
	}
}

func TestRegistrySnapshotSortedAndComplete(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_ctr").Add(5)
	reg.Counter("a_ctr").Inc()
	reg.Gauge("mid_gauge").Set(-1.5)
	hist := reg.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		hist.Record(i)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_ctr" || s.Counters[1].Name != "z_ctr" {
		t.Fatalf("counters not sorted/complete: %+v", s.Counters)
	}
	if s.Counters[1].Value != 5 {
		t.Errorf("z_ctr = %d, want 5", s.Counters[1].Value)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != -1.5 {
		t.Errorf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	hv := s.Histograms[0]
	if hv.Count != 100 || hv.Max != 100 || hv.P50 != 50 {
		t.Errorf("hist summary: %+v", hv)
	}
}

func TestJournalEmitsMonotonicValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	j.Event("round_complete", "round", 3, "episodes", int64(128), "loss", 0.25)
	j.Event("swap", "version", uint64(2), "ok", true, "dangling")
	j.Event("weird", "msg", "a b=\"c\"", 42, nil)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if j.seq != 3 {
		t.Fatalf("seq = %d, want 3", j.seq)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if seq, _ := m["seq"].(float64); seq != float64(i+1) {
			t.Errorf("line %d: seq = %v, want %d", i+1, m["seq"], i+1)
		}
		if _, ok := m["ts"].(string); !ok {
			t.Errorf("line %d: missing ts", i+1)
		}
	}
	var first map[string]any
	json.Unmarshal([]byte(lines[0]), &first)
	if first["event"] != "round_complete" || first["round"] != float64(3) || first["loss"] != 0.25 {
		t.Errorf("first event fields wrong: %v", first)
	}
	var third map[string]any
	json.Unmarshal([]byte(lines[2]), &third)
	if third["msg"] != `a b="c"` {
		t.Errorf("string value mangled: %v", third["msg"])
	}
	if v, present := third["42"]; !present || v != nil {
		t.Errorf("odd trailing key must serialize as null: %v", third)
	}

	var nilJ *Journal
	nilJ.Event("dropped") // must not panic
	if nilJ.Err() != nil || nilJ.Close() != nil {
		t.Error("nil journal accessors must be inert")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.n--
	return len(p), nil
}

func TestJournalWriteErrorIsSticky(t *testing.T) {
	j := NewJournal(&failWriter{n: 1})
	j.Event("ok")
	j.Event("fails")
	j.Event("dropped")
	if j.Err() == nil {
		t.Fatal("want sticky error")
	}
	if j.seq != 2 {
		t.Errorf("seq = %d; events after the sticky error must not consume sequence numbers", j.seq)
	}
}

func TestLoggerKeyValueFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "mrsch-test")
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Event("kernel", "set", "avx2", "fma", true, "dim", 64, "wait", 250*time.Microsecond, "note", "has spaces", "empty", "")
	got := buf.String()
	want := `ts=2026-08-08T12:00:00Z component=mrsch-test event=kernel set=avx2 fma=true dim=64 wait=250µs note="has spaces" empty=""` + "\n"
	if got != want {
		t.Errorf("logger line:\n got %q\nwant %q", got, want)
	}
	var nilL *Logger
	nilL.Event("dropped") // must not panic
}

func TestHTTPHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve_decisions_total").Add(42)
	reg.Gauge("serve_model_version").Set(3)
	h := reg.Histogram("serve_decision_latency_ns")
	for i := int64(0); i < 1000; i++ {
		h.Record(i * 1000)
	}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"serve_decisions_total 42\n",
		"serve_model_version 3\n",
		"serve_decision_latency_ns_count 1000\n",
		"serve_decision_latency_ns_p50 ",
		"serve_decision_latency_ns_p99 ",
		"serve_decision_latency_ns_p999 ",
		"serve_decision_latency_ns_max 999000\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics text missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics json: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 42 || len(snap.Histograms) != 1 {
		t.Errorf("json snapshot: %+v", snap)
	}

	code, body = get("/health")
	if code != http.StatusOK {
		t.Fatalf("/health: %d", code)
	}
	var health struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || health.Status != "ok" {
		t.Errorf("/health: %q err=%v", body, err)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
}

// Open with both flags empty opens nothing and logs nothing; with an
// unopenable journal it fails naming -journal.
func TestOpen(t *testing.T) {
	var log bytes.Buffer
	logger := NewLogger(&log, "test")
	reg, journal, closeAll, err := Open("", "", logger)
	if err != nil || reg != nil || journal != nil {
		t.Fatalf("empty flags: reg %v journal %v err %v, want nil, nil, nil", reg, journal, err)
	}
	closeAll()
	if log.Len() != 0 {
		t.Errorf("empty flags logged %q", log.String())
	}

	missing := filepath.Join(t.TempDir(), "missing", "run.jsonl")
	if _, _, _, err := Open("127.0.0.1:0", missing, logger); err == nil || !strings.HasPrefix(err.Error(), "-journal: ") {
		t.Fatalf("unopenable journal: got %v, want an error naming -journal", err)
	}
	if !strings.Contains(log.String(), "event=telemetry addr=127.0.0.1:") {
		t.Errorf("the endpoint's address was not logged: %q", log.String())
	}

	reg, journal, closeAll, err = Open("127.0.0.1:0", filepath.Join(t.TempDir(), "run.jsonl"), nil)
	if err != nil || reg == nil || journal == nil {
		t.Fatalf("both flags: reg %v journal %v err %v", reg, journal, err)
	}
	closeAll()
}

func TestListenAndServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "up 1\n") {
		t.Errorf("metrics over the wire: %q", b)
	}
}
