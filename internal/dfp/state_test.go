package dfp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
)

// goldenStatePath is the committed format-stability fixture: a checkpoint
// written by this package at format v3. Regenerate (after a DELIBERATE
// format change, bumping stateMagic) with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenStateFixture ./internal/dfp/
var goldenStatePath = filepath.Join("..", "..", "specs", "golden-dfp-state-v3.ckpt")

// parentStatePath is the v2 fixture as the last v2 commit wrote it, from
// goldenAgent with a three-step episode the agent was recording itself: what
// an old checkpoint looks like to this loader.
var parentStatePath = filepath.Join("..", "..", "specs", "golden-dfp-state-v2.ckpt")

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

func stateBytes(t *testing.T, a *Agent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func weightBytes(t *testing.T, a *Agent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// SaveState -> LoadState into a fresh agent must reproduce the full
// training state: identical re-serialization, and bit-identical training
// continuation (losses, rng-driven sampling, epsilon, weights).
func TestStateRoundTrip(t *testing.T) {
	a := goldenAgent()
	saved := stateBytes(t, a)

	b := New(goldenConfig())
	if err := b.LoadState(bytes.NewReader(saved)); err != nil {
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
		if err := b.LoadState(bytes.NewReader(data)); err == nil {
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
}

// A version-mismatched container (wrong inner magic) is named as such.
func TestLoadStateVersionMismatch(t *testing.T) {
	a := goldenAgent()
	var buf bytes.Buffer
	st := agentState{Magic: "mrsch-dfp-state-v0"}
	if err := nn.EncodeChecksummed(&buf, &st); err != nil {
		t.Fatal(err)
	}
	err := a.LoadState(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "magic") {
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
		err := b.LoadState(bytes.NewReader(saved))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.label, tc.want, err)
		}
	}
}

// A checkpoint the parent format wrote — the committed v2 fixture, which
// carries an episode the agent was recording itself — is refused by its
// version name with nothing applied, never read as if it were this format.
func TestLoadStateRefusesParentFormat(t *testing.T) {
	data, err := os.ReadFile(parentStatePath)
	if err != nil {
		t.Fatal(err)
	}
	b := New(goldenConfig())
	before := stateBytes(t, b)
	err = b.LoadState(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), `bad magic "mrsch-dfp-state-v2"`) {
		t.Fatalf("want the v2 container refused by name, got %v", err)
	}
	if !bytes.Equal(before, stateBytes(t, b)) {
		t.Fatal("refused load mutated the agent")
	}
}

// The committed fixture must keep loading — and re-serializing to its
// exact committed bytes — for as long as stateMagic says v3. If this test
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
	if err := b.LoadState(bytes.NewReader(data)); err != nil {
		t.Fatalf("golden v3 fixture no longer loads: %v", err)
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
