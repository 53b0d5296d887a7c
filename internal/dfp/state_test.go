package dfp

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// goldenStatePath is the committed format-stability fixture: a state
// section written by this package at format v4, sealed. Regenerate (after a
// DELIBERATE format change, bumping stateMagic) with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenStateFixture ./internal/dfp/
var goldenStatePath = filepath.Join("..", "..", "specs", "golden-dfp-state-v4.ckpt")

// parentStatePath is the v3 fixture, the last gob container, as the last v3
// commit wrote it from goldenAgent: what an old checkpoint looks like to this
// loader, and the bits the v4 fixture must hold.
var parentStatePath = filepath.Join("..", "..", "specs", "golden-dfp-state-v3.ckpt")

// goldenConfig is the fixture's architecture: small, with a replay capacity
// low enough that the fixture exercises ring wraparound.
func goldenConfig() Config {
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.ReplayCap = 16
	cfg.BatchSize = 4
	return cfg
}

// goldenAgent builds the deterministic agent the fixture snapshots: a
// wrapped replay buffer, a few gradient steps (Adam moments + rng
// movement), and a materialized published snapshot (the pipelined-training
// buffer).
func goldenAgent() *Agent {
	a := New(goldenConfig())
	fillReplay(a, 24, 5) // 24 > cap 16: the ring wraps
	for i := 0; i < 6; i++ {
		a.TrainStep()
	}
	a.SnapshotActor()
	a.PublishWeights()
	return a
}

// stateBytes is the agent's state section as a file: sealed.
func stateBytes(t testing.TB, a *Agent) []byte {
	t.Helper()
	return wire.Seal(a.AppendState(nil))
}

// loadState loads a file stateBytes wrote into a.
func loadState(a *Agent, data []byte) error { return wire.Unseal(data, a.ReadState) }

func weightBytes(t *testing.T, a *Agent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Model().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Saving then loading into a fresh agent must reproduce the full
// training state: identical re-serialization, and bit-identical training
// continuation (losses, rng-driven sampling, epsilon, weights).
func TestStateRoundTrip(t *testing.T) {
	a := goldenAgent()
	saved := stateBytes(t, a)

	b := New(goldenConfig())
	if err := loadState(b, saved); err != nil {
		t.Fatal(err)
	}
	if got := stateBytes(t, b); !bytes.Equal(got, saved) {
		t.Fatal("re-serialized state differs from the loaded bytes")
	}
	if a.ReplaySize() != b.ReplaySize() || a.Epsilon() != b.Epsilon() {
		t.Fatalf("surface state differs: replay %d/%d eps %g/%g", a.ReplaySize(), b.ReplaySize(), a.Epsilon(), b.Epsilon())
	}

	// Continue training both: the trajectories must stay bitwise equal
	// through episode ingestion and further gradient steps.
	recordEpisode(a, 3, 12)
	recordEpisode(b, 3, 12)
	for i := 0; i < 5; i++ {
		la, lb := a.TrainStep(), b.TrainStep()
		if la != lb {
			t.Fatalf("step %d: loss %v != %v after resume", i, la, lb)
		}
	}
	if !bytes.Equal(weightBytes(t, a), weightBytes(t, b)) {
		t.Fatal("weights diverged after resumed training")
	}
}

// Corrupt input — any flipped byte or truncation anywhere in the file —
// must fail loudly and leave the receiving agent untouched.
func TestLoadStateCorruptionRejectedWithoutPartialApply(t *testing.T) {
	saved := stateBytes(t, goldenAgent())

	fresh := func() (*Agent, []byte) {
		b := New(goldenConfig())
		return b, stateBytes(t, b)
	}
	check := func(label string, data []byte) {
		t.Helper()
		b, before := fresh()
		if err := loadState(b, data); err == nil {
			t.Fatalf("%s: corrupt state accepted", label)
		}
		if after := stateBytes(t, b); !bytes.Equal(before, after) {
			t.Fatalf("%s: failed load mutated the agent (no-partial-state contract)", label)
		}
	}

	check("empty", nil)
	for _, frac := range []int{10, 3, 2} {
		check("truncated", saved[:len(saved)/frac])
	}
	check("truncated-by-one", saved[:len(saved)-1])
	step := len(saved)/97 + 1
	for off := 0; off < len(saved); off += step {
		mutated := append([]byte(nil), saved...)
		mutated[off] ^= 0x40
		check("bitflip", mutated)
	}
	// Behind a valid seal: a body cut anywhere — inside the train state, the
	// counters or the replay — is refused after the sections before the cut
	// decoded cleanly, and none of them is applied.
	body := saved[:len(saved)-32]
	for end := 0; end < len(body); end += len(body)/61 + 1 {
		check("resealed-truncation", wire.Seal(append([]byte(nil), body[:end]...)))
	}
	check("resealed-trailing-byte", wire.Seal(append(append([]byte(nil), body...), 0)))
}

// A section of another version is named as such.
func TestLoadStateVersionMismatch(t *testing.T) {
	a := goldenAgent()
	err := loadState(a, wire.Seal(wire.AppendString(nil, "mrsch-dfp-state-v0")))
	if err == nil || !strings.Contains(err.Error(), `bad magic "mrsch-dfp-state-v0"`) {
		t.Fatalf("want a magic/version error, got %v", err)
	}
}

// State only loads into the agent configuration that wrote it: dimension,
// seed, and replay-capacity drift are all named in the error.
func TestLoadStateConfigMismatch(t *testing.T) {
	saved := stateBytes(t, goldenAgent())
	cases := []struct {
		label  string
		mutate func(*Config)
		want   string
	}{
		{"dims", func(c *Config) { c.StateDim = 13 }, "architecture mismatch"},
		{"seed", func(c *Config) { c.Seed = 4 }, "seed mismatch"},
		{"capacity", func(c *Config) { c.ReplayCap = 32 }, "capacity mismatch"},
	}
	for _, tc := range cases {
		cfg := goldenConfig()
		tc.mutate(&cfg)
		b := New(cfg)
		err := loadState(b, saved)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.label, tc.want, err)
		}
	}
}

// A checkpoint the parent format wrote — the committed v3 fixture, a gob
// container — is refused as the retired gob format with nothing applied,
// never read as if it were this format. Every older container was gob too.
func TestLoadStateRefusesParentFormat(t *testing.T) {
	data, err := os.ReadFile(parentStatePath)
	if err != nil {
		t.Fatal(err)
	}
	b := New(goldenConfig())
	before := stateBytes(t, b)
	err = loadState(b, data)
	if err == nil || !strings.Contains(err.Error(), "retired gob format") {
		t.Fatalf("want the v3 container refused as the retired gob format, got %v", err)
	}
	if !bytes.Equal(before, stateBytes(t, b)) {
		t.Fatal("refused load mutated the agent")
	}
}

// The committed fixture must keep loading — and re-serializing to its
// exact committed bytes — for as long as stateMagic says v4. If this test
// fails, the change broke the on-disk format: either restore
// compatibility or bump the version (with a loud error for old files) and
// regenerate the fixture.
func TestGoldenStateFixture(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		data := stateBytes(t, goldenAgent())
		if err := os.WriteFile(goldenStatePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", goldenStatePath, len(data))
	}
	data, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatalf("golden fixture missing (generate with UPDATE_GOLDEN=1): %v", err)
	}
	b := New(goldenConfig())
	if err := loadState(b, data); err != nil {
		t.Fatalf("golden v4 fixture no longer loads: %v", err)
	}
	if got := stateBytes(t, b); !bytes.Equal(got, data) {
		t.Fatal("golden fixture round-trip drifted: load+save no longer reproduces the committed bytes")
	}
	// Spot-check the restored surface: the fixture has a wrapped 16-slot
	// replay and an advanced rng cursor.
	if b.ReplaySize() != 16 {
		t.Errorf("restored replay size %d, want 16", b.ReplaySize())
	}
	if b.rngSrc.Cursor() == 0 {
		t.Error("restored rng cursor is zero; the fixture should have consumed draws")
	}
	if b.trainSteps != 6 {
		t.Errorf("restored trainSteps %d, want 6", b.trainSteps)
	}
}

// The v3 gob container, as the parent format wrote it: an envelope whose
// payload is the agent state, with the nn train state inside it. Gob matches
// fields by name, so these test-side types read the committed v3 fixture.
type (
	gobEnvelope struct {
		Magic string
		Sum   [32]byte
		Data  []byte
	}
	gobAgentState struct {
		Magic                                    string
		StateDim, Measurements, Actions, PredDim int
		Seed                                     int64
		Train                                    gobTrainState
		RngCursor                                uint64
		Eps                                      float64
		TrainSteps                               int
		ReplayCap, ReplayNext                    int
		ReplayFull                               bool
		Replay                                   []gobExperience
	}
	gobExperience struct {
		State, Meas, Goal []float64
		Action            int
		Target            []float64
		Mask              []bool
	}
	gobTrainState struct {
		Magic        string
		Params       []gobParam
		Snaps        [][]float64
		AdamT        int
		AdamM, AdamV [][]float64
	}
	gobParam struct {
		Name   string
		Values []float64
	}
)

// readParentFixture decodes the committed v3 fixture with encoding/gob.
func readParentFixture(t *testing.T) gobAgentState {
	t.Helper()
	data, err := os.ReadFile(parentStatePath)
	if err != nil {
		t.Fatal(err)
	}
	var env gobEnvelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(env.Data) != env.Sum {
		t.Fatal("v3 fixture: payload checksum mismatch")
	}
	var st gobAgentState
	if err := gob.NewDecoder(bytes.NewReader(env.Data)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Magic != "mrsch-dfp-state-v3" || st.Train.Magic != "mrsch-nn-train-v1" {
		t.Fatalf("v3 fixture magics %q, %q", st.Magic, st.Train.Magic)
	}
	return st
}

// The format changed and the bits did not: the v4 fixture, loaded, holds
// every weight, snapshot, Adam moment and replay entry of the v3 fixture bit
// for bit, and the same epsilon, rng cursor and train-step count. The v3
// contents are laid out as a v4 section here and compared with what the
// loaded agent writes — the layout carries every float64 as its bits.
func TestGoldenStateKeepsParentBits(t *testing.T) {
	old := readParentFixture(t)
	data, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	b := New(goldenConfig())
	if err := loadState(b, data); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(b.eps) != math.Float64bits(old.Eps) || b.rngSrc.Cursor() != old.RngCursor || b.trainSteps != old.TrainSteps {
		t.Fatalf("eps %v cursor %d steps %d, v3 has %v %d %d", b.eps, b.rngSrc.Cursor(), b.trainSteps, old.Eps, old.RngCursor, old.TrainSteps)
	}
	tr := old.Train
	want := wire.AppendString(nil, stateMagic)
	for _, d := range []int{old.StateDim, old.Measurements, old.Actions, old.PredDim} {
		want = wire.AppendInt(want, d)
	}
	want = wire.AppendInt64(want, old.Seed)
	want = wire.AppendUvarint(want, uint64(len(tr.Params)))
	for i, p := range tr.Params {
		if tr.Snaps[i] == nil || tr.AdamM[i] == nil {
			t.Fatalf("v3 param %q has no snapshot or no moments: the fixture no longer covers them", p.Name)
		}
		want = wire.AppendString(want, p.Name)
		want = wire.AppendUvarint(want, uint64(len(p.Values)))
		want = wire.AppendFloats(want, p.Values)
		want = wire.AppendFloats(wire.AppendBool(want, true), tr.Snaps[i])
		want = wire.AppendFloats(wire.AppendFloats(wire.AppendBool(want, true), tr.AdamM[i]), tr.AdamV[i])
	}
	want = wire.AppendInt(want, tr.AdamT)
	want = wire.AppendUvarint(want, old.RngCursor)
	want = wire.AppendFloat(want, old.Eps)
	want = wire.AppendInt(want, old.TrainSteps)
	want = wire.AppendInt(want, old.ReplayCap)
	want = wire.AppendInt(want, old.ReplayNext)
	want = wire.AppendBool(want, old.ReplayFull)
	want = wire.AppendUvarint(want, uint64(len(old.Replay)))
	for _, e := range old.Replay {
		want = wire.AppendFloats(want, e.State)
		want = wire.AppendFloats(want, e.Meas)
		want = wire.AppendFloats(want, e.Goal)
		want = wire.AppendInt(want, e.Action)
		want = wire.AppendFloats(want, e.Target)
		for _, m := range e.Mask {
			want = wire.AppendBool(want, m)
		}
	}
	if got := b.AppendState(nil); !bytes.Equal(got, want) {
		t.Fatalf("the v4 load differs from the v3 fixture's contents (%d bytes against %d)", len(got), len(want))
	}
}
