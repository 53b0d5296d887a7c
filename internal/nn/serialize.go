package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// weightsFile is the on-disk format: a named flat vector per parameter, in
// parameter order. The architecture itself is reconstructed by the caller
// (model code is versioned with the repository; only weights need persisting).
type weightsFile struct {
	Magic  string
	Params []savedParam
}

type savedParam struct {
	Name   string
	Values []float64
}

const weightsMagic = "mrsch-nn-weights-v1"

// SaveWeights serializes the given parameters to w using encoding/gob.
func SaveWeights(w io.Writer, params []*Param) error {
	GobWarmup()
	f := weightsFile{Magic: weightsMagic}
	for _, p := range params {
		f.Params = append(f.Params, savedParam{Name: p.Name, Values: Copy(p.Value)})
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
		return fmt.Errorf("nn: save weights: %w", err)
	}
	return nil
}

// LoadWeights restores parameter values previously written by SaveWeights.
// Parameters are matched positionally and checked by name and length, and
// every value must be finite. The whole file is checked before anything is
// copied: on any error every parameter is left exactly as it was.
func LoadWeights(r io.Reader, params []*Param) error {
	var f weightsFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("nn: load weights: %w", err)
	}
	if f.Magic != weightsMagic {
		return fmt.Errorf("nn: load weights: bad magic %q", f.Magic)
	}
	if len(f.Params) != len(params) {
		return fmt.Errorf("nn: load weights: have %d params, file has %d", len(params), len(f.Params))
	}
	for i, sp := range f.Params {
		p := params[i]
		if sp.Name != p.Name {
			return fmt.Errorf("nn: load weights: param %d name %q, file has %q", i, p.Name, sp.Name)
		}
		if len(sp.Values) != len(p.Value) {
			return fmt.Errorf("nn: load weights: param %q length %d, file has %d", p.Name, len(p.Value), len(sp.Values))
		}
		for k, v := range sp.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: load weights: param %q value %d is %v", p.Name, k, v)
			}
		}
	}
	for i, sp := range f.Params {
		copy(params[i].Value, sp.Values)
	}
	return nil
}
