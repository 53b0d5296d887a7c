package rl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/nn"
	"repro/internal/sim"
)

func rlStateBytes(t *testing.T, s *Scheduler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func rlWeightBytes(t *testing.T, s *Scheduler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainEpisodes runs n deterministic training episodes through the
// simulator, each sampled by an actor reseeded from the episode's number.
func trainEpisodes(t *testing.T, s *Scheduler, n int, seed int64) {
	t.Helper()
	actor := s.Actor()
	rng := rand.New(rand.NewSource(seed))
	for ep := 0; ep < n; ep++ {
		var jobs []*job.Job
		clk := 0.0
		for i := 1; i <= 25; i++ {
			clk += float64(rng.Intn(50))
			jobs = append(jobs, mk(ep*100+i, clk, float64(rng.Intn(400)+10), rng.Intn(16)+1, rng.Intn(9)))
		}
		actor.Reset(seed*100 + int64(ep))
		simu := sim.New(sys(), actor.Policy())
		if err := simu.Load(jobs); err != nil {
			t.Fatal(err)
		}
		if err := simu.Run(); err != nil {
			t.Fatal(err)
		}
		s.IngestTrajectory(actor.TakeTrajectory())
	}
}

// SaveState -> LoadState must reproduce REINFORCE training bit-for-bit:
// identical re-serialization and an identical continuation.
func TestSchedulerStateRoundTrip(t *testing.T) {
	a := New(sys(), tinyConfig(3))
	trainEpisodes(t, a, 3, 11)
	saved := rlStateBytes(t, a)

	b := New(sys(), tinyConfig(3))
	if err := b.LoadState(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if got := rlStateBytes(t, b); !bytes.Equal(got, saved) {
		t.Fatal("re-serialized state differs from the loaded bytes")
	}
	trainEpisodes(t, a, 2, 12)
	trainEpisodes(t, b, 2, 12)
	if !bytes.Equal(rlWeightBytes(t, a), rlWeightBytes(t, b)) {
		t.Fatal("weights diverged after resumed training")
	}
}

// Corrupt and mismatched input fails loudly with nothing applied.
func TestSchedulerLoadStateRejects(t *testing.T) {
	a := New(sys(), tinyConfig(3))
	trainEpisodes(t, a, 2, 11)
	saved := rlStateBytes(t, a)

	b := New(sys(), tinyConfig(3))
	before := rlStateBytes(t, b)
	for off := 0; off < len(saved); off += len(saved)/53 + 1 {
		mutated := append([]byte(nil), saved...)
		mutated[off] ^= 0x10
		if err := b.LoadState(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("bitflip at %d accepted", off)
		}
	}
	if err := b.LoadState(bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatal("truncated state accepted")
	}
	if after := rlStateBytes(t, b); !bytes.Equal(before, after) {
		t.Fatal("failed loads mutated the scheduler")
	}

	c := New(sys(), tinyConfig(4)) // different seed
	if err := c.LoadState(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("want seed mismatch, got %v", err)
	}
	wide := tinyConfig(3)
	wide.Window = 6
	d := New(sys(), wide)
	if err := d.LoadState(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "architecture mismatch") {
		t.Fatalf("want architecture mismatch, got %v", err)
	}
}

// parentContainer is the v1 container as the parent format wrote it: v2 plus
// the rng cursor and the steps of an episode the scheduler was recording
// itself.
type parentContainer struct {
	Magic     string
	StateDim  int
	Window    int
	Seed      int64
	Train     nn.TrainState
	RngCursor uint64
	Episode   []parentStep
}

type parentStep struct {
	State  []float64
	Action int
	Valid  int
	Reward float64
}

// A checkpoint the parent format wrote — well-formed, with a train state that
// fits — is refused by its version name with nothing applied, never read as
// if it were this format.
func TestSchedulerLoadStateRefusesParentFormat(t *testing.T) {
	a := New(sys(), tinyConfig(3))
	trainEpisodes(t, a, 2, 11)
	old := parentContainer{
		Magic: "mrsch-rl-state-v1", StateDim: a.enc.StateDim(), Window: a.cfg.Window, Seed: a.cfg.Seed,
		Train:     nn.CaptureTrainState(a.net.Params(), a.opt),
		RngCursor: 75,
		Episode:   []parentStep{{State: make([]float64, a.enc.StateDim()), Action: 1, Valid: 2, Reward: 0.5}},
	}
	var buf bytes.Buffer
	if err := nn.EncodeChecksummed(&buf, &old); err != nil {
		t.Fatal(err)
	}
	b := New(sys(), tinyConfig(3))
	before := rlStateBytes(t, b)
	err := b.LoadState(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `bad magic "mrsch-rl-state-v1"`) {
		t.Fatalf("want the v1 container refused by name, got %v", err)
	}
	if !bytes.Equal(before, rlStateBytes(t, b)) {
		t.Fatal("refused load mutated the scheduler")
	}
}
