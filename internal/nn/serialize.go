package nn

import (
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// weightsMagic versions the weights section. v1 was a gob stream, which
// wire.Unseal refuses as the retired gob format.
const weightsMagic = "mrsch-nn-weights-v2"

// SaveWeights writes params' weights to w as a model file: one weights
// section (AppendWeights), sealed. The architecture itself is reconstructed by
// the caller (model code is versioned with the repository; only weights need
// persisting).
func SaveWeights(w io.Writer, params []*Param) error {
	if _, err := w.Write(wire.Seal(AppendWeights(nil, params))); err != nil {
		return fmt.Errorf("nn: save weights: %w", err)
	}
	return nil
}

// AppendWeights appends the weights section of params: its magic, the
// parameter count, then per parameter, in order, its name and its values.
func AppendWeights(b []byte, params []*Param) []byte {
	b = wire.AppendString(b, weightsMagic)
	b = wire.AppendUvarint(b, uint64(len(params)))
	for _, p := range params {
		b = appendValues(b, p)
	}
	return b
}

// LoadWeights restores parameter values previously written by SaveWeights.
// The whole file is checked before anything is copied: on any error every
// parameter is left exactly as it was.
func LoadWeights(r io.Reader, params []*Param) error {
	data, err := io.ReadAll(r)
	if err == nil {
		err = wire.Unseal(data, func(r *wire.Reader) (func(), error) {
			w, err := ReadWeights(r, params)
			return func() { SetWeights(params, w) }, err
		})
	}
	if err != nil {
		return fmt.Errorf("nn: load weights: %w", err)
	}
	return nil
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
		for k, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("param %q value %d is %v", p.Name, k, x)
			}
		}
		w[i] = &Param{Name: p.Name, Value: v}
	}
	return w, nil
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

// appendValues appends the head of a parameter record: its name, then the
// count and bits of its values.
func appendValues(b []byte, p *Param) []byte {
	b = wire.AppendString(b, p.Name)
	b = wire.AppendUvarint(b, uint64(len(p.Value)))
	return wire.AppendFloats(b, p.Value)
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

// readValues reads the head of the record of p, the i-th parameter, and checks
// its name and length: the one check every loader of parameters applies.
func readValues(r *wire.Reader, i int, p *Param) (Vec, error) {
	name := r.Bytes()
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(name) != p.Name {
		return nil, fmt.Errorf("param %d name %q, file has %q", i, p.Name, name[:min(len(name), 64)])
	}
	if n != len(p.Value) {
		return nil, fmt.Errorf("param %q length %d, file has %d", p.Name, len(p.Value), n)
	}
	return r.Floats(n), nil
}
