// Versioned copy-on-write weight snapshots. A snapshot is a second, stable
// buffer per Param that rollout actors read while the optimizer keeps
// mutating the live Value — the mechanism that lets internal/rollout overlap
// episode collection with gradient steps (pipelined training).
//
// The protocol has two sides:
//
//   - Readers call SnapshotClone on a network. The clone's params alias each
//     Param's snapshot buffer (materialized as a copy of Value on first use),
//     so any number of clones can run concurrent forward passes against a
//     frozen weight version.
//
//   - The single writer calls Publish (or PublishParams) at a point where no
//     reader is mid-forward — e.g. internal/rollout's inter-round join — to
//     copy the live Value into the snapshot buffer in place and bump the
//     version. Existing clones see the new weights on their next forward
//     pass without re-cloning.
//
// Publish between synchronization points, never concurrently with readers:
// the snapshot buffer is shared by all clones, so refreshing it mid-read
// would race. Params nobody snapshotted skip the copy entirely (the
// copy-on-write property: inference-only and barrier-mode agents never pay).
package nn

// Snapshot returns the param's published value buffer, materializing it as a
// copy of the current Value on first call. The returned slice is stable: all
// later Publish calls refresh it in place, so readers that alias it follow
// the published version without re-acquiring.
func (p *Param) Snapshot() Vec {
	if p.snap == nil {
		p.snap = Copy(p.Value)
	}
	return p.snap
}

// Publish copies the live Value into the snapshot buffer and bumps the
// version. It is a no-op for params that were never snapshotted. The caller
// must guarantee no concurrent reader of the snapshot (see the file doc).
func (p *Param) Publish() {
	if p.snap == nil {
		return
	}
	copy(p.snap, p.Value)
	p.version++
}

// Version reports how many times the snapshot has been refreshed by Publish
// (0 while it still holds the value captured at materialization).
func (p *Param) Version() uint64 { return p.version }

// PublishParams publishes every param's live value into its snapshot.
func PublishParams(ps []*Param) {
	for _, p := range ps {
		p.Publish()
	}
}

// snapshotParam returns a Param whose Value aliases p's published snapshot
// buffer, with no gradient storage. It is the param view behind
// SnapshotClone, the read-side of the pipelined-training protocol.
func snapshotParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Snapshot()}
}

// SnapshotClone returns a copy of l whose parameters read the published
// weight snapshot (materializing it from the current live values on first
// use) instead of the live Value buffers, with private forward state and, as
// for SharedClone, no gradient storage. The clone's weights stay frozen at
// the last published version while the original trains, and advance when the
// owner calls Publish/PublishParams at a synchronization point.
func SnapshotClone(l Layer) Layer { return l.clone(snapshotParam) }
