package nn

import (
	"math/rand"
	"testing"
)

func testNet(rng *rand.Rand) *Sequential {
	return NewSequential(6,
		NewDense(6, 8, HeInit, rng), NewLeakyReLU(0.01),
		NewDense(8, 4, XavierInit, rng),
	)
}

// Snapshot materializes a copy of the live value once, stays stable while the
// live value mutates, and follows Publish in place (same backing array).
func TestParamSnapshotPublishVersioning(t *testing.T) {
	p := NewParam("w", 4)
	copy(p.Value, []float64{1, 2, 3, 4})

	// Publish before any snapshot is a no-op: it materializes nothing.
	p.Publish()
	if p.snap != nil {
		t.Fatal("publish without a snapshot materialized one")
	}

	snap := p.Snapshot()
	if &snap[0] == &p.Value[0] {
		t.Fatal("snapshot aliases the live value")
	}
	for i, v := range []float64{1, 2, 3, 4} {
		if snap[i] != v {
			t.Fatalf("snap[%d] = %v, want %v", i, snap[i], v)
		}
	}

	// Live mutation is invisible until Publish.
	p.Value[0] = 99
	if snap[0] != 1 {
		t.Fatalf("snapshot moved with live value: %v", snap[0])
	}
	p.Publish()
	if snap[0] != 99 {
		t.Fatalf("snapshot did not follow Publish: %v", snap[0])
	}

	// Snapshot is idempotent: the same backing buffer every time.
	if again := p.Snapshot(); &again[0] != &snap[0] {
		t.Fatal("Snapshot returned a different buffer on second call")
	}
}

// SnapshotClone outputs are frozen at the published weights while the
// original's live weights change, and advance on PublishParams without
// re-cloning. SharedClone, by contrast, follows live weights immediately.
func TestSnapshotCloneFreezesUntilPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := testNet(rng)
	x := []float64{0.3, -0.2, 0.8, 0.1, -0.5, 0.4}

	snapC := SnapshotClone(net)
	sharedC := SharedClone(net)
	before := Copy(net.Forward(nil, x, 1))

	// Perturb the live weights.
	for _, p := range net.Params() {
		for i := range p.Value {
			p.Value[i] += 0.1
		}
	}
	after := Copy(net.Forward(nil, x, 1))

	snapOut := snapC.Forward(nil, x, 1)
	for i := range snapOut {
		if snapOut[i] != before[i] {
			t.Fatalf("snapshot clone output[%d] = %v, want frozen %v", i, snapOut[i], before[i])
		}
	}
	sharedOut := sharedC.Forward(nil, x, 1)
	for i := range sharedOut {
		if sharedOut[i] != after[i] {
			t.Fatalf("shared clone output[%d] = %v, want live %v", i, sharedOut[i], after[i])
		}
	}

	PublishParams(net.Params())
	snapOut = snapC.Forward(nil, x, 1)
	for i := range snapOut {
		if snapOut[i] != after[i] {
			t.Fatalf("published snapshot clone output[%d] = %v, want %v", i, snapOut[i], after[i])
		}
	}
}

// Two snapshot clones of one network alias the same published buffers, so a
// single Publish updates both.
func TestSnapshotClonesShareOneVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := testNet(rng)
	x := []float64{1, 0, -1, 0.5, 0.2, -0.3}

	a := SnapshotClone(net)
	b := SnapshotClone(net)
	net.Params()[0].Value[0] += 2.5
	PublishParams(net.Params())

	ao, bo := a.Forward(nil, x, 1), b.Forward(nil, x, 1)
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("clone outputs diverge at %d: %v vs %v", i, ao[i], bo[i])
		}
	}
}
