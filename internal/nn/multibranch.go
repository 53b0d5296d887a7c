package nn

import "fmt"

// Branch is one sub-network of a MultiBranch layer. It consumes the
// concatenation of the given half-open index ranges of the layer input;
// ranges may overlap between branches (gradients from overlapping reads
// accumulate).
type Branch struct {
	Ranges [][2]int
	Net    Layer
}

func (b *Branch) inSize() int {
	n := 0
	for _, r := range b.Ranges {
		n += r[1] - r[0]
	}
	return n
}

// MultiBranch runs several sub-networks over (possibly overlapping) slices
// of its input and concatenates their outputs. It exists to reproduce the
// state-module design alternative discussed in §III-A of the paper: one
// neural network per resource, each seeing the job window plus its own
// resource's units — the configuration MRSch rejects in favour of a single
// network. Ablation benchmarks compare both.
//
// A batch gathers each branch's columns of all bsz rows into one contiguous
// matrix, runs the branch's own batched pass, and scatters the rows back.
type MultiBranch struct {
	InSize   int
	Branches []Branch
	outSizes []int

	gather Vec // one branch's gathered rows; branches copy what they keep
	outBuf Vec
	ginBuf Vec
	lastB  int // rows seen by the last forward (0 = none yet)
}

// NewMultiBranch validates the branch geometry against the input size.
func NewMultiBranch(inSize int, branches ...Branch) *MultiBranch {
	m := &MultiBranch{InSize: inSize, Branches: branches}
	for i, b := range branches {
		for _, r := range b.Ranges {
			if r[0] < 0 || r[1] > inSize || r[0] >= r[1] {
				panic(fmt.Sprintf("nn: MultiBranch branch %d range %v invalid for input %d", i, r, inSize))
			}
		}
		m.outSizes = append(m.outSizes, b.Net.OutSize(b.inSize()))
	}
	return m
}

// outSize is the per-sample output width: the branches' outputs concatenated.
func (m *MultiBranch) outSize() int {
	total := 0
	for _, n := range m.outSizes {
		total += n
	}
	return total
}

// Forward gathers each branch's ranges of every row, runs the branch net over
// the bsz gathered rows, and writes the per-row concatenation into dst.
func (m *MultiBranch) Forward(dst, x Vec, bsz int) Vec {
	if bsz <= 0 || len(x) != bsz*m.InSize {
		panic(fmt.Sprintf("nn: MultiBranch.Forward got %d inputs, want %d x %d", len(x), bsz, m.InSize))
	}
	total := m.outSize()
	if dst == nil {
		m.outBuf = Ensure(m.outBuf, bsz*total)
		dst = m.outBuf
	}
	if len(dst) != bsz*total {
		panic(fmt.Sprintf("nn: MultiBranch.Forward dst len %d, want %d x %d", len(dst), bsz, total))
	}
	m.lastB = bsz
	off := 0
	for i := range m.Branches {
		b := &m.Branches[i]
		m.gather = Ensure(m.gather, bsz*b.inSize())
		pos := 0
		for bi := 0; bi < bsz; bi++ {
			row := x[bi*m.InSize : (bi+1)*m.InSize]
			for _, r := range b.Ranges {
				pos += copy(m.gather[pos:], row[r[0]:r[1]])
			}
		}
		out, n := b.Net.Forward(nil, m.gather, bsz), m.outSizes[i]
		for bi := 0; bi < bsz; bi++ {
			copy(dst[bi*total+off:bi*total+off+n], out[bi*n:(bi+1)*n])
		}
		off += n
	}
	return dst
}

// Backward splits each row's output gradient per branch, runs the branch's
// batched backward, and scatter-adds its input gradient back into the shared
// input positions (ranges may overlap between branches, so dst is zeroed
// first). Every length is checked before any branch accumulates a gradient.
func (m *MultiBranch) Backward(dst, grad Vec, bsz int) Vec {
	total := m.outSize()
	if bsz != m.lastB || len(grad) != bsz*total {
		panic(fmt.Sprintf("nn: MultiBranch.Backward got %d grads (%d rows), want %d x %d", len(grad), bsz, m.lastB, total))
	}
	if dst == nil {
		m.ginBuf = Ensure(m.ginBuf, bsz*m.InSize)
		dst = m.ginBuf
	}
	if len(dst) != bsz*m.InSize {
		panic(fmt.Sprintf("nn: MultiBranch.Backward dst len %d, want %d x %d", len(dst), bsz, m.InSize))
	}
	Fill(dst, 0)
	off := 0
	for i := range m.Branches {
		b := &m.Branches[i]
		n := m.outSizes[i]
		m.gather = Ensure(m.gather, bsz*n)
		for bi := 0; bi < bsz; bi++ {
			copy(m.gather[bi*n:(bi+1)*n], grad[bi*total+off:bi*total+off+n])
		}
		off += n
		gBranch := b.Net.Backward(nil, m.gather, bsz)
		pos := 0
		for bi := 0; bi < bsz; bi++ {
			row := dst[bi*m.InSize : (bi+1)*m.InSize]
			for _, r := range b.Ranges {
				for k := r[0]; k < r[1]; k++ {
					row[k] += gBranch[pos]
					pos++
				}
			}
		}
	}
	return dst
}

// Params returns all branches' parameters.
func (m *MultiBranch) Params() []*Param {
	var ps []*Param
	for _, b := range m.Branches {
		ps = append(ps, b.Net.Params()...)
	}
	return ps
}

func (m *MultiBranch) clone(view func(*Param) *Param) Layer {
	branches := make([]Branch, len(m.Branches))
	for i, b := range m.Branches {
		branches[i] = Branch{Ranges: b.Ranges, Net: b.Net.clone(view)}
	}
	return &MultiBranch{InSize: m.InSize, Branches: branches, outSizes: append([]int(nil), m.outSizes...)}
}

// OutSize implements Layer.
func (m *MultiBranch) OutSize(in int) int {
	if in != m.InSize {
		panic(fmt.Sprintf("nn: MultiBranch.OutSize input %d, layer expects %d", in, m.InSize))
	}
	return m.outSize()
}
