package rl

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rlStateBytes is the scheduler's state section as a file: sealed.
func rlStateBytes(t testing.TB, s *Scheduler) []byte {
	t.Helper()
	return wire.Seal(s.AppendState(nil))
}

// loadRLState loads a file rlStateBytes wrote into s.
func loadRLState(s *Scheduler, data []byte) error { return wire.Unseal(data, s.ReadState) }

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
func trainEpisodes(t testing.TB, s *Scheduler, n int, seed int64) {
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

// Saving then loading must reproduce REINFORCE training bit-for-bit:
// identical re-serialization and an identical continuation.
func TestSchedulerStateRoundTrip(t *testing.T) {
	a := New(sys(), tinyConfig(3))
	trainEpisodes(t, a, 3, 11)
	saved := rlStateBytes(t, a)

	b := New(sys(), tinyConfig(3))
	if err := loadRLState(b, saved); err != nil {
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
		if err := loadRLState(b, mutated); err == nil {
			t.Fatalf("bitflip at %d accepted", off)
		}
	}
	if err := loadRLState(b, saved[:len(saved)/2]); err == nil {
		t.Fatal("truncated state accepted")
	}
	// Behind a valid seal, a body cut anywhere is refused whole.
	body := saved[:len(saved)-32]
	for end := 0; end < len(body); end += len(body)/41 + 1 {
		if err := loadRLState(b, wire.Seal(append([]byte(nil), body[:end]...))); err == nil {
			t.Fatalf("body cut at %d accepted", end)
		}
	}
	if after := rlStateBytes(t, b); !bytes.Equal(before, after) {
		t.Fatal("failed loads mutated the scheduler")
	}

	c := New(sys(), tinyConfig(4)) // different seed
	if err := loadRLState(c, saved); err == nil || !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("want seed mismatch, got %v", err)
	}
	wide := tinyConfig(3)
	wide.Window = 6
	d := New(sys(), wide)
	if err := loadRLState(d, saved); err == nil || !strings.Contains(err.Error(), "architecture mismatch") {
		t.Fatalf("want architecture mismatch, got %v", err)
	}
}

// The v2 container as the parent format wrote it — the scheduler state inside
// a checksummed envelope, both gob streams — built here with encoding/gob.
type (
	parentEnvelope struct {
		Magic string
		Sum   [32]byte
		Data  []byte
	}
	parentContainer struct {
		Magic    string
		StateDim int
		Window   int
		Seed     int64
		Train    parentTrainState
	}
	parentTrainState struct {
		Magic        string
		Params       []parentParam
		Snaps        [][]float64
		AdamT        int
		AdamM, AdamV [][]float64
	}
	parentParam struct {
		Name   string
		Values []float64
	}
)

// A checkpoint the parent format wrote — well-formed, with a train state that
// fits — is refused as the retired gob format with nothing applied, never
// read as if it were this format.
func TestSchedulerLoadStateRefusesParentFormat(t *testing.T) {
	a := New(sys(), tinyConfig(3))
	trainEpisodes(t, a, 2, 11)
	params := a.net.Params()
	old := parentContainer{
		Magic: "mrsch-rl-state-v2", StateDim: a.enc.StateDim(), Window: a.cfg.Window, Seed: a.cfg.Seed,
		Train: parentTrainState{Magic: "mrsch-nn-train-v1", Snaps: make([][]float64, len(params)),
			AdamM: make([][]float64, len(params)), AdamV: make([][]float64, len(params))},
	}
	for _, p := range params {
		old.Train.Params = append(old.Train.Params, parentParam{Name: p.Name, Values: p.Value})
	}
	var payload, file bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	env := parentEnvelope{Magic: "mrsch-ckpt-envelope-v1", Sum: sha256.Sum256(payload.Bytes()), Data: payload.Bytes()}
	if err := gob.NewEncoder(&file).Encode(&env); err != nil {
		t.Fatal(err)
	}
	b := New(sys(), tinyConfig(3))
	before := rlStateBytes(t, b)
	err := loadRLState(b, file.Bytes())
	if err == nil || !strings.Contains(err.Error(), "retired gob format") {
		t.Fatalf("want the v2 container refused as the retired gob format, got %v", err)
	}
	if !bytes.Equal(before, rlStateBytes(t, b)) {
		t.Fatal("refused load mutated the scheduler")
	}
}

// A released scheduler holds no gradient and no Adam moment and keeps its
// policy: the same saved weights and the same evaluator picks. Its state
// section round-trips and is what a new scheduler that loaded its model file
// writes, so training it further is fine-tuning from its weights with a
// fresh optimizer: the same episodes move both to the bit.
func TestReleaseTrainingKeepsThePolicy(t *testing.T) {
	s := New(sys(), tinyConfig(5))
	trainEpisodes(t, s, 3, 21)
	weights := rlWeightBytes(t, s)
	cl := cluster.New(sys())
	if err := cl.Allocate(9, []int{6, 2}, 0, 300); err != nil {
		t.Fatal(err)
	}
	queue := []*job.Job{mk(1, 0, 10, 1, 0), mk(2, 0, 10, 2, 1), mk(3, 4, 90, 12, 4), mk(4, 5, 30, 3, 3), mk(5, 6, 20, 1, 1)}
	ctxs := []*sched.PickContext{ctxWith(cl, 10, queue), ctxWith(cl, 20, queue[2:]), ctxWith(cl, 30, queue[4:])}
	picks := func() []int {
		ev := s.Evaluator(13)
		var got []int
		for i := range 60 {
			got = append(got, ev.Pick(ctxs[i%len(ctxs)]))
		}
		return got
	}
	before := picks()

	s.ReleaseTraining()
	for _, p := range s.net.Params() {
		if p.Grad != nil {
			t.Fatalf("after the release %s keeps its gradient", p.Name)
		}
	}
	if !bytes.Equal(rlWeightBytes(t, s), weights) {
		t.Fatal("the release changed the saved weights")
	}
	if !slices.Equal(picks(), before) {
		t.Fatal("the released scheduler's evaluator picks otherwise")
	}
	released := rlStateBytes(t, s)
	back := New(sys(), tinyConfig(5))
	if err := loadRLState(back, released); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rlStateBytes(t, back), released) {
		t.Fatal("the released state section does not round-trip")
	}
	loaded := New(sys(), tinyConfig(5))
	if err := loaded.Load(bytes.NewReader(weights)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rlStateBytes(t, loaded), released) {
		t.Fatal("the released state section holds more than the weights: Adam moments or a step count")
	}
	trainEpisodes(t, s, 2, 22)
	trainEpisodes(t, loaded, 2, 22)
	if !bytes.Equal(rlStateBytes(t, s), rlStateBytes(t, loaded)) {
		t.Fatal("fine-tuning the released scheduler and the loaded one ends in different states")
	}
}
