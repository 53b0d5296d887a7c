package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/rollout"
	"repro/internal/wire"
)

// This file makes training runs durable. A run with
// CampaignOptions.CheckpointDir set writes its full state to one file at
// every round boundary (the rollout.Config.Checkpoint hook, rules 9-10 of the
// rollout package doc); with CampaignOptions.Resume set it restores that file
// and continues from the
// recorded boundary, bitwise identical to never having been interrupted.
// The file is one sealed layout (internal/wire) of sections: a manifest of
// the settings the equivalence contract depends on — run key, spec hash,
// episode counts, pipelined mode and rollout seed, all verified on resume
// and rejected loudly on mismatch — then the agent's
// state section (dfp.Agent or rl.Scheduler AppendState) and, for a validated
// run, the §IV-A selection section (core.Selection). Every section is decoded
// and checked before any is applied.

// ckptMagic versions the manifest, and with it the file. v1 was a gob
// container wrapping the agent's own container; v2 recorded the rollout
// worker count, which no longer enters a training.
const ckptMagic = "mrsch-train-ckpt-v3"

// manifest is a train checkpoint's first section.
type manifest struct {
	// Key names the training run (method kind, scenario family, arity).
	Key string
	// SpecHash digests the full scale spec the run's materials and
	// curriculum derive from: an edit that keeps the episode count but
	// changes the job sets (set_size, trace_duration, eps_decay, ...)
	// must not silently resume old-curriculum state on new episodes.
	SpecHash string
	// Episodes is the number of episodes fully reduced into the agent;
	// Total the run's episode count (a second curriculum guard).
	Episodes int
	Total    int
	// Pipelined/Seed pin the rollout settings the bitwise resume contract
	// requires (rollout doc rules 9-10).
	Pipelined bool
	Seed      int64
}

func (m manifest) append(b []byte) []byte {
	b = wire.AppendString(b, ckptMagic)
	b = wire.AppendString(b, m.Key)
	b = wire.AppendString(b, m.SpecHash)
	b = wire.AppendInt(b, m.Episodes)
	b = wire.AppendInt(b, m.Total)
	b = wire.AppendBool(b, m.Pipelined)
	return wire.AppendInt64(b, m.Seed)
}

// check refuses a recorded manifest written under settings other than want's.
func (m manifest) check(want manifest) error {
	switch {
	case m.Key != want.Key:
		return fmt.Errorf("checkpoint is for run %q, this run is %q", m.Key, want.Key)
	case m.SpecHash != want.SpecHash:
		return fmt.Errorf("checkpoint was written for a different scale spec (curriculum/materials drifted between runs; bitwise resume requires an identical spec)")
	case m.Total != want.Total:
		return fmt.Errorf("checkpoint expects %d episodes, this run has %d (curriculum drifted between runs)", m.Total, want.Total)
	case m.Pipelined != want.Pipelined:
		return fmt.Errorf("checkpoint was written with pipelined=%v, this run uses %v (bitwise resume requires identical -pipeline)", m.Pipelined, want.Pipelined)
	case m.Seed != want.Seed:
		return fmt.Errorf("checkpoint was written at rollout seed %d, this run uses %d", m.Seed, want.Seed)
	case m.Episodes < 0 || m.Episodes > m.Total:
		return fmt.Errorf("recorded boundary %d outside [0, %d]", m.Episodes, m.Total)
	}
	return nil
}

// section is what a train checkpoint holds after its manifest: the agent's
// state, then a validated run's selection state.
type section interface {
	AppendState([]byte) []byte
	ReadState(*wire.Reader) (func(), error)
}

// trainKey names a training run for checkpoint files and log lines.
func trainKey(kind, family string, cnn, power bool) string {
	key := kind + "-" + family
	if cnn {
		key += "-cnn"
	}
	if power {
		key += "-power"
	}
	return key
}

// sanitizeName maps an arbitrary key to a filesystem-safe token: runs of
// anything outside [A-Za-z0-9._-] collapse to one '-'.
func sanitizeName(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
			dash = false
		default:
			if !dash {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.Trim(b.String(), "-")
}

// checkpointPath is the run's checkpoint file under dir. The name carries
// the scale-spec hash: runs over different materials — a campaign's seed
// replicates or div/ia variants of one family, or an edited spec — each
// get their own file instead of colliding on (and then refusing) each
// other's state, so a fleet launched with -resume from day one always
// either resumes its own run or starts fresh.
func checkpointPath(dir, key, specHash string) string {
	return filepath.Join(dir, "train-"+sanitizeName(key)+"-"+specHash+".ckpt")
}

// writeFileAtomic writes data to path via a temp file + fsync + rename +
// directory fsync, so neither a crash mid-write nor a power loss shortly
// after the rename can leave a truncated checkpoint where a complete
// older one (or nothing) should be. The temp file sits in path's own
// directory ("." for a bare name, never $TMPDIR), so the rename cannot cross
// filesystems.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// Flush the data before the rename publishes it: on journaling
	// filesystems with delayed allocation, rename-before-flush can
	// survive a power cut as a zero-length file at the final path.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Persist the rename itself (the directory entry).
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// wireCheckpoint arms cfg with opt's durable-training knobs for one run at
// scale sc: a round-boundary save hook writing the manifest and sections to
// the key's file under CheckpointDir, and — with Resume set and a checkpoint
// present — a checked restore of every section with cfg.Resume pointing at
// the recorded boundary. total is the run's episode count. No CheckpointDir
// means no-op.
func (opt CampaignOptions) wireCheckpoint(cfg *rollout.Config, sc Scale, key string, total int, sections []section) error {
	if opt.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("experiments: checkpoint dir: %w", err)
	}
	specHash, err := sc.specHash()
	if err != nil {
		return err
	}
	want := manifest{Key: key, SpecHash: specHash, Total: total, Pipelined: cfg.Pipelined, Seed: cfg.Seed}
	path := checkpointPath(opt.CheckpointDir, key, specHash)

	if opt.Resume {
		data, err := os.ReadFile(path)
		if err == nil {
			if cfg.Resume, err = readCheckpoint(data, want, sections); err == nil && opt.OnCheckpoint != nil {
				opt.OnCheckpoint("resume", cfg.Resume)
			}
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("experiments: resume %s: %w", path, err)
		}
	}

	every := opt.CheckpointEvery
	if every < 1 {
		every = 1
	}
	boundaries := 0
	cfg.Checkpoint = func(done int) error {
		// Throttle to every Nth round boundary; the final boundary always
		// writes so a completed run's checkpoint is its final state.
		boundaries++
		if boundaries%every != 0 && done != total {
			return nil
		}
		m := want
		m.Episodes = done
		b := m.append(nil)
		for _, sec := range sections {
			b = sec.AppendState(b)
		}
		if err := writeFileAtomic(path, wire.Seal(b)); err != nil {
			return fmt.Errorf("writing checkpoint %s: %w", path, err)
		}
		if opt.OnCheckpoint != nil {
			opt.OnCheckpoint("save", done)
		}
		return nil
	}
	return nil
}

// readCheckpoint decodes a train checkpoint, checks its manifest against
// want and every section against its receiver, and only then applies the
// sections. It returns the recorded episode boundary.
func readCheckpoint(data []byte, want manifest, sections []section) (int, error) {
	var m manifest
	err := wire.Unseal(data, func(r *wire.Reader) (func(), error) {
		if err := r.Magic(ckptMagic); err != nil {
			return nil, err
		}
		m = manifest{Key: string(r.Bytes()), SpecHash: string(r.Bytes()), Episodes: r.Int(), Total: r.Int(), Pipelined: r.Bool(), Seed: r.Int64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := m.check(want); err != nil {
			return nil, err
		}
		applies := make([]func(), len(sections))
		for i, sec := range sections {
			var err error
			if applies[i], err = sec.ReadState(r); err != nil {
				return nil, err
			}
		}
		return func() {
			for _, apply := range applies {
				apply()
			}
		}, nil
	})
	if err != nil {
		return 0, err
	}
	return m.Episodes, nil
}

// specHash digests the scale spec the run's materials and curriculum are
// a deterministic function of.
func (s Scale) specHash() (string, error) {
	spec, err := json.Marshal(s.ScaleSpec)
	if err != nil {
		return "", fmt.Errorf("experiments: hashing scale spec: %w", err)
	}
	return modelStoreKeyHash("scale|" + string(spec)), nil
}

// modelStoreKeyHash content-addresses a trained family model: the hash
// covers everything the trained weights are a deterministic function of.
func modelStoreKeyHash(content string) string {
	sum := sha256.Sum256([]byte(content))
	return fmt.Sprintf("%x", sum[:8])
}
