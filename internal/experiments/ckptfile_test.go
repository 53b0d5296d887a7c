package experiments

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfp"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// ckptFixture is what the checkpoint tests below load: a trained agent's state
// section and a §IV-A selection section, sealed under one manifest, into an
// untrained receiver of the same architecture with a selection of its own.
type ckptFixture struct {
	want                 manifest
	source, target       *dfp.Agent
	sourceSel, targetSel *core.Selection
}

func newCkptFixture(t testing.TB) (f ckptFixture) {
	sc := tinyScale()
	m := MustPrepare(sc)
	trained, err := Train(m, TrainRun{Kind: scenario.KindMRSch, Family: "S2"}, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.System()
	valid, err := m.ValidationWorkload("S2")
	if err != nil {
		t.Fatal(err)
	}
	f.source = trained.MRSch.Agent
	f.sourceSel = core.NewSelection(trained.MRSch, sys, valid, 1)
	if err := f.sourceSel.AfterEpisode(0, core.EpisodeResult{}); err != nil {
		t.Fatal(err)
	}
	target := NewMRSchUntrained(sc, false)
	f.target = target.Agent
	f.targetSel = core.NewSelection(target, sys, valid, 1)
	f.want = manifest{Key: "mrsch-S2-validated", SpecHash: "0123456789abcdef", Episodes: 6, Total: 6, Seed: 5}
	return f
}

// file seals the manifest and the given sections.
func (f ckptFixture) file(sections ...section) []byte {
	b := f.want.append(nil)
	for _, s := range sections {
		b = s.AppendState(b)
	}
	return wire.Seal(b)
}

// receiverState is everything a load may change: the receiving agent's state
// section and its selection's.
func (f ckptFixture) receiverState() []byte {
	return f.targetSel.AppendState(f.target.AppendState(nil))
}

// A validated checkpoint round-trips: loading it applies the agent's state
// and the selection's, and the receiver then writes the same file back.
func TestTrainCheckpointRoundTrip(t *testing.T) {
	f := newCkptFixture(t)
	file := f.file(f.source, f.sourceSel)
	done, err := readCheckpoint(file, f.want, []section{f.target, f.targetSel})
	if err != nil {
		t.Fatal(err)
	}
	if done != f.want.Episodes {
		t.Fatalf("recorded boundary %d, want %d", done, f.want.Episodes)
	}
	if !bytes.Equal(f.file(f.target, f.targetSel), file) {
		t.Fatal("a loaded checkpoint writes back other bytes")
	}
}

// A v2 train checkpoint, whose manifest recorded the rollout worker count,
// is refused by its magic under -resume, loudly, and nothing in it applies.
func TestTrainResumeRefusesV2Checkpoint(t *testing.T) {
	f := newCkptFixture(t)
	b := wire.AppendString(nil, "mrsch-train-ckpt-v2")
	b = wire.AppendString(b, f.want.Key)
	b = wire.AppendString(b, f.want.SpecHash)
	b = wire.AppendInt(b, f.want.Episodes)
	b = wire.AppendInt(b, f.want.Total)
	b = wire.AppendInt(b, 1) // rollout workers
	b = wire.AppendBool(b, f.want.Pipelined)
	b = wire.AppendInt64(b, f.want.Seed)
	v2 := wire.Seal(f.sourceSel.AppendState(f.source.AppendState(b)))

	before := f.receiverState()
	if _, err := readCheckpoint(v2, f.want, []section{f.target, f.targetSel}); err == nil || !strings.Contains(err.Error(), "mrsch-train-ckpt-v2") {
		t.Fatalf("want the v2 manifest refused by name, got %v", err)
	}
	if !bytes.Equal(before, f.receiverState()) {
		t.Fatal("a refused v2 checkpoint changed the agent or its selection")
	}

	// Through a run: the file where -resume looks for it fails the run.
	dir := t.TempDir()
	sc := tinyScale()
	specHash, err := sc.specHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath(dir, "mrsch-S2", specHash), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := CampaignOptions{CheckpointDir: dir, Resume: true}
	if _, err := Train(MustPrepare(sc), TrainRun{Kind: scenario.KindMRSch, Family: "S2"}, opt); err == nil || !strings.Contains(err.Error(), "mrsch-train-ckpt-v2") {
		t.Fatalf("-resume over a v2 checkpoint: want it refused by name, got %v", err)
	}
}

// A validated checkpoint whose agent section is sound and whose selection
// section is not — its best weights were saved for another architecture — is
// refused whole: the agent keeps its own state, not the checkpoint's, and the
// selection keeps its own best.
func TestValidatedResumeAppliesNothingOnBadSelection(t *testing.T) {
	f := newCkptFixture(t)
	sc := tinyScale()
	cnn, _, err := sc.newAgent(TrainRun{Kind: scenario.KindMRSch, Family: "S2", CNN: true}, sc.System())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := MustPrepare(sc).ValidationWorkload("S2")
	if err != nil {
		t.Fatal(err)
	}
	foreign := core.NewSelection(cnn.MRSch, sc.System(), valid, 1)
	if err := foreign.AfterEpisode(0, core.EpisodeResult{}); err != nil {
		t.Fatal(err)
	}
	before := f.receiverState()
	_, err = readCheckpoint(f.file(f.source, foreign), f.want, []section{f.target, f.targetSel})
	if err == nil || !strings.Contains(err.Error(), "best weights") {
		t.Fatalf("want the foreign best weights refused, got %v", err)
	}
	if !bytes.Equal(before, f.receiverState()) {
		t.Fatal("a refused checkpoint changed the agent or its selection")
	}
}

// decodeOnly reads a section and applies nothing.
type decodeOnly struct{ section }

func (d decodeOnly) ReadState(r *wire.Reader) (func(), error) {
	_, err := d.section.ReadState(r)
	return func() {}, err
}

// FuzzTrainCheckpoint drives arbitrary bytes through the train-checkpoint
// loader, for a plain run (manifest and agent section) and a validated one
// (and a selection section), as they are and sealed. Invariants: no panic, a
// failed load changes neither receiver, and decoding allocates no more than a
// small multiple of its input. Behind the seal the sections are decoded and
// not applied: a fuzzed rng cursor may be anything up to nn.MaxRngCursor,
// whose replay is a legitimately slow apply.
func FuzzTrainCheckpoint(f *testing.F) {
	fx := newCkptFixture(f)
	for _, file := range [][]byte{fx.file(fx.source), fx.file(fx.source, fx.sourceSel)} {
		body := file[:len(file)-32]
		f.Add(file)
		f.Add(file[:len(file)/2])
		f.Add(body)
		f.Add(body[:len(body)/3])
	}
	f.Add([]byte(nil))
	f.Add(wire.AppendString(nil, ckptMagic))

	plain, validated := []section{fx.target}, []section{fx.target, fx.targetSel}
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := wire.Seal(append([]byte(nil), data...))
		for _, sections := range [][]section{plain, validated} {
			before := fx.receiverState()
			if _, err := readCheckpoint(data, fx.want, sections); err != nil && !bytes.Equal(before, fx.receiverState()) {
				t.Fatal("a failed load changed a receiver")
			}
			decoders := make([]section, len(sections))
			for i, s := range sections {
				decoders[i] = decodeOnly{s}
			}
			before = fx.receiverState()
			if n := allocated(func() { readCheckpoint(sealed, fx.want, decoders) }); n > 4*uint64(len(sealed))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(sealed), n)
			}
			if !bytes.Equal(before, fx.receiverState()) {
				t.Fatal("decoding a checkpoint changed a receiver")
			}
		}
	})
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
