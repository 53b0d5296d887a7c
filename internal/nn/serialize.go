package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/wire"
)

// weightsMagic versions the weights section. v1 was a gob stream, which
// wire.Unseal refuses as the retired gob format.
const weightsMagic = "mrsch-nn-weights-v2"

// SaveWeights writes params' weights to w as a model file: one weights
// section (AppendWeights), sealed, in one buffer sized once from the params.
// The architecture itself is reconstructed by the caller (model code is
// versioned with the repository; only weights need persisting).
func SaveWeights(w io.Writer, params []*Param) error {
	b := make([]byte, 0, weightsSize(params)+wire.SealSize)
	if _, err := w.Write(wire.Seal(AppendWeights(b, params))); err != nil {
		return fmt.Errorf("nn: save weights: %w", err)
	}
	return nil
}

// AppendWeights appends the weights section of params: its magic, the
// parameter count, then per parameter, in order, its name and its values. A
// packed-only Dense's weights are read back out of its packed copy in the
// dense order, so the bytes are the ones its dense values would give.
func AppendWeights(b []byte, params []*Param) []byte {
	b = wire.AppendString(b, weightsMagic)
	b = wire.AppendUvarint(b, uint64(len(params)))
	for _, p := range params {
		b = appendValues(b, p)
	}
	return b
}

// weightsSize bounds the bytes of params' weights section from above: every
// count at its longest uvarint.
func weightsSize(params []*Param) int {
	n := 2*binary.MaxVarintLen64 + len(weightsMagic)
	for _, p := range params {
		n += 2*binary.MaxVarintLen64 + len(p.Name) + 8*p.size()
	}
	return n
}

// LoadWeights restores parameter values previously written by SaveWeights.
// The whole file is checked before anything is copied: on any error every
// parameter is left exactly as it was.
func LoadWeights(r io.Reader, params []*Param) error {
	return loadFile(r, func(r *wire.Reader) (func(), error) {
		w, err := ReadWeights(r, params)
		return func() { SetWeights(params, w) }, err
	})
}

// LoadFresh reads a model file into params, the parameters of networks just
// built that nothing else reads yet: each record is decoded straight into its
// param's own Value, so the load allocates the file's bytes and nothing per
// parameter. The sealed file is checked before anything is decoded, but a
// record that fails its own checks leaves the params before it written: on
// an error the caller drops the networks.
func LoadFresh(r io.Reader, params []*Param) error {
	return loadFile(r, func(r *wire.Reader) (func(), error) {
		return func() {}, readFresh(r, params)
	})
}

func readFresh(r *wire.Reader, params []*Param) error {
	if err := r.Magic(weightsMagic); err != nil {
		return err
	}
	if err := readCount(r, params); err != nil {
		return err
	}
	for i, p := range params {
		if err := readInto(r, i, p); err != nil {
			return err
		}
	}
	return nil
}

// loadFile reads a sealed model file from r to its end and hands its body to
// read (wire.Unseal).
func loadFile(r io.Reader, read func(*wire.Reader) (func(), error)) error {
	data, err := readFile(r)
	if err == nil {
		err = wire.Unseal(data, read)
	}
	if err != nil {
		return fmt.Errorf("nn: load weights: %w", err)
	}
	return nil
}

// readFile reads r to its end. Where r tells how much is left — an *os.File
// by Stat, a bytes or strings reader by Len — the buffer is that size from
// the start, instead of growing geometrically as io.ReadAll's does.
func readFile(r io.Reader) ([]byte, error) {
	size := 512
	switch f := r.(type) {
	case interface{ Len() int }:
		size = f.Len() + 1 // the +1 lets the read that finds EOF fit
	case *os.File:
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size()) + 1
		}
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ReadWeights decodes a weights section and checks it against params:
// parameters are matched positionally and checked by name and length, and
// every value must be finite. It changes nothing and returns what it read as
// Weights does.
func ReadWeights(r *wire.Reader, params []*Param) ([]*Param, error) {
	if err := r.Magic(weightsMagic); err != nil {
		return nil, err
	}
	if err := readCount(r, params); err != nil {
		return nil, err
	}
	w := make([]*Param, len(params))
	for i, p := range params {
		v, err := readValues(r, i, p)
		if err != nil {
			return nil, err
		}
		if err := checkFinite(p, v); err != nil {
			return nil, err
		}
		w[i] = &Param{Name: p.Name, Value: v}
	}
	return w, nil
}

// checkFinite refuses values of p that hold a NaN or an infinity.
func checkFinite(p *Param, v Vec) error {
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("param %q value %d is %v", p.Name, k, x)
		}
	}
	return nil
}

// Weights returns a detached copy of params' names and values.
func Weights(params []*Param) []*Param {
	w := make([]*Param, len(params))
	for i, p := range params {
		w[i] = &Param{Name: p.Name, Value: Copy(p.Value)}
	}
	return w
}

// SetWeights copies the values of w, which Weights or ReadWeights made from
// params, into params.
func SetWeights(params, w []*Param) {
	for i, p := range params {
		copy(p.Value, w[i].Value)
	}
}

// appendValues appends a parameter record: its name, then the count and bits
// of its values, a packed-only param's read back a row at a time.
func appendValues(b []byte, p *Param) []byte {
	b = wire.AppendString(b, p.Name)
	b = wire.AppendUvarint(b, uint64(p.size()))
	if p.packed == nil {
		return wire.AppendFloats(b, p.Value)
	}
	in, out := p.packed.Shape()
	row := make(Vec, in)
	for o := range out {
		b = wire.AppendFloats(b, p.packed.Row(row, o))
	}
	return b
}

// readCount reads a section's parameter count and checks it against params.
// A record is at least two bytes, its name's count and its values' count.
func readCount(r *wire.Reader, params []*Param) error {
	if n := r.Count(2); n != len(params) {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("have %d params, file has %d", len(params), n)
	}
	return nil
}

// readHead reads the head of the record of p, the i-th parameter — its name
// and its values' count — and checks both: the one check every loader of
// parameters applies. It returns the count.
func readHead(r *wire.Reader, i int, p *Param) (int, error) {
	name := r.Bytes()
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if string(name) != p.Name {
		return 0, fmt.Errorf("param %d name %q, file has %q", i, p.Name, name[:min(len(name), 64)])
	}
	if n != len(p.Value) { // a packed-only param has none to load into
		return 0, fmt.Errorf("param %q length %d, file has %d", p.Name, len(p.Value), n)
	}
	return n, nil
}

// readValues reads the record of p, the i-th parameter, into a new vector.
func readValues(r *wire.Reader, i int, p *Param) (Vec, error) {
	n, err := readHead(r, i, p)
	if err != nil {
		return nil, err
	}
	return r.Floats(n), r.Err()
}

// readInto reads the record of p, the i-th parameter, into p's own Value and
// checks every value finite.
func readInto(r *wire.Reader, i int, p *Param) error {
	if _, err := readHead(r, i, p); err != nil {
		return err
	}
	r.FloatsInto(p.Value)
	if err := r.Err(); err != nil {
		return err
	}
	return checkFinite(p, p.Value)
}
