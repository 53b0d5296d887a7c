package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The canonical field codec (package doc). Appenders grow a byte slice; a
// Reader consumes one field by field.

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as a zig-zag uvarint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInt64 appends v as a zig-zag uvarint.
func AppendInt64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat appends v's 64 IEEE-754 bits, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends each of vs as AppendFloat does, with no count: a layout
// that needs one writes it first.
func AppendFloats(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s as its count then its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p as its count then its bytes.
func AppendBytes(b []byte, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendInts appends the count of vs, then each as AppendInt does.
func AppendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendInt(b, v)
	}
	return b
}

// Reader consumes a payload field by field. The first departure from the
// layout is recorded and empties the reader: every later read returns zero
// and every later count is zero, so a decoder runs to its end without a check
// per field and sizes nothing from a damaged count. Err reports the damage.
type Reader struct {
	b      []byte
	damage string
}

// NewReader reads b, which it does not copy.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records what as the reader's damage unless it already has some.
func (r *Reader) Fail(what string) {
	if r.damage == "" {
		r.damage = what
	}
	r.b = nil
}

// Err returns the first departure from the layout, or nil.
func (r *Reader) Err() error {
	if r.damage == "" {
		return nil
	}
	return errors.New(r.damage)
}

// Finish records bytes left after the last field as damage and returns Err.
func (r *Reader) Finish() error {
	if len(r.b) > 0 {
		r.Fail("bytes after the last field")
	}
	return r.Err()
}

// Uvarint reads a uvarint, which must be minimal.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.Fail("varint is not minimal")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int64 reads a zig-zag uvarint.
func (r *Reader) Int64() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zig-zag uvarint that must fit this platform's int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.Fail("integer does not fit this platform's int")
		return 0
	}
	return int(v)
}

// Float reads a float64 from its 64 bits.
func (r *Reader) Float() float64 {
	if len(r.b) < 8 {
		r.Fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Floats reads n float64s written by AppendFloats into a new slice, refusing
// an n the unread bytes cannot hold before allocating.
func (r *Reader) Floats(n int) []float64 {
	if n > len(r.b)/8 {
		r.Fail("truncated float64 run")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return out
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if len(r.b) < 1 || r.b[0] > 1 {
		r.Fail("truncated bool or a byte that is neither 0 nor 1")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Count reads a count of elements that occupy at least minBytes each and
// refuses one the unread bytes cannot hold.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail("count exceeds the bytes that follow it")
		return 0
	}
	return int(n)
}

// Bytes reads a counted run of bytes, returned as a view of the payload.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Ints reads a counted run of ints onto the end of arena and returns the run
// (capped, so appending to it cannot reach its neighbour) and the extended
// arena. A run handed out earlier stays valid if the arena has to grow: it
// keeps the array it was cut from.
func (r *Reader) Ints(arena []int) (run, extended []int) {
	n := r.Count(1)
	start := len(arena)
	for i := 0; i < n; i++ {
		arena = append(arena, r.Int())
	}
	return arena[start:len(arena):len(arena)], arena
}

// Magic reads a section's magic-and-version string and refuses any other
// than want, naming both.
func (r *Reader) Magic(want string) error {
	got := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if string(got) != want {
		return fmt.Errorf("bad magic %q (want %q; corrupt file or incompatible format version)", got[:min(len(got), 64)], want)
	}
	return nil
}

// Seal appends the SHA-256 of file to it: the trailer every durable file
// ends in.
func Seal(file []byte) []byte {
	sum := sha256.Sum256(file)
	return append(file, sum[:]...)
}

// retiredGob are the magics the gob containers durable files were written in
// before the sealed layout, found near the start of any such file.
var retiredGob = []string{"mrsch-ckpt-envelope-v1", "mrsch-nn-weights-v1"}

// Unseal verifies the SHA-256 trailer of data and decodes what it seals with
// read, which checks everything and changes nothing: it returns the change as
// apply. Unseal calls apply only when read succeeded and consumed every byte,
// so a failed load leaves everything as it was.
func Unseal(data []byte, read func(*Reader) (apply func(), err error)) error {
	n := len(data) - sha256.Size
	if n < 0 || sha256.Sum256(data[:n]) != [sha256.Size]byte(data[n:]) {
		for _, magic := range retiredGob {
			if bytes.Contains(data[:min(len(data), 512)], []byte(magic)) {
				return fmt.Errorf("the file is in the retired gob format (%s), which this build no longer reads: retrain or re-save it", magic)
			}
		}
		return errors.New("checksum mismatch: the file is truncated or corrupt")
	}
	r := NewReader(data[:n])
	apply, err := read(&r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return err
	}
	apply()
	return nil
}
