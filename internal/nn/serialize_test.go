package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

func weightsNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(4, NewDense(4, 3, HeInit, rng), NewLeakyReLU(0.01), NewDense(3, 2, HeInit, rng))
}

func weightsFile(t testing.TB, params []*Param) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveWeights(&buf, params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Encoding then decoding is the identity: a model file loaded into another
// network saves back to the same bytes.
func TestWeightsRoundTripIsIdentity(t *testing.T) {
	saved := weightsFile(t, weightsNet(9).Params())
	other := weightsNet(1234).Params()
	if err := LoadWeights(bytes.NewReader(saved), other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(weightsFile(t, other), saved) {
		t.Fatal("a loaded model file saves to other bytes")
	}
}

// A model file from before the sealed layout — a gob stream — is refused as
// the retired gob format, with every parameter left as it was.
func TestLoadWeightsRefusesGobFormat(t *testing.T) {
	type savedParam struct {
		Name   string
		Values []float64
	}
	old := struct {
		Magic  string
		Params []savedParam
	}{Magic: "mrsch-nn-weights-v1"}
	for _, p := range weightsNet(9).Params() {
		old.Params = append(old.Params, savedParam{p.Name, p.Value})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	dst := weightsNet(1234).Params()
	before := weightsFile(t, dst)
	err := LoadWeights(&buf, dst)
	if err == nil || !strings.Contains(err.Error(), "retired gob format") {
		t.Fatalf("want the gob weights file refused as the retired gob format, got %v", err)
	}
	if !bytes.Equal(before, weightsFile(t, dst)) {
		t.Fatal("a refused gob file changed the weights")
	}
}

// FuzzLoadWeights drives arbitrary bytes through the model-file loader — what
// any client reaches through the daemon's swap frame and -model — as they are
// and sealed, so the fuzzer reaches the section decoder behind the checksum.
// Invariants: no panic, a failed load changes no weight, and a load allocates
// no more than a small multiple of its input (every count is held against the
// bytes left before anything is sized from it).
func FuzzLoadWeights(f *testing.F) {
	valid := weightsFile(f, weightsNet(9).Params())
	body := valid[:len(valid)-32]
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(wire.AppendUvarint(wire.AppendString(nil, weightsMagic), 1<<40))

	target := weightsNet(1234).Params()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, wire.Seal(append([]byte(nil), data...))} {
			before := weightsFile(t, target)
			var err error
			if n := allocated(func() { err = LoadWeights(bytes.NewReader(file), target) }); n > 4*uint64(len(file))+64<<10 {
				t.Fatalf("loading %d bytes allocated %d", len(file), n)
			}
			if err != nil && !bytes.Equal(before, weightsFile(t, target)) {
				t.Fatal("failed load changed the weights")
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
