package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// Every field form decodes to what was appended, bit for bit, and the decoded
// values append back to the same bytes.
func TestFieldsRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_dead_beef_0001), 5e-324, -1.5}
	encode := func(u uint64, i int, i64 int64, fs []float64, ok bool, s string, p []byte, is []int) []byte {
		b := AppendUvarint(nil, u)
		b = AppendInt(b, i)
		b = AppendInt64(b, i64)
		b = AppendFloats(AppendUvarint(b, uint64(len(fs))), fs)
		b = AppendBool(b, ok)
		b = AppendString(b, s)
		b = AppendBytes(b, p)
		return AppendInts(b, is)
	}
	want := encode(1<<63, -7, math.MinInt64, floats, true, "mrsch", []byte{0, 255}, []int{3, -3, 0})
	r := NewReader(want)
	u, i, i64 := r.Uvarint(), r.Int(), r.Int64()
	fs := r.Floats(r.Count(8))
	ok, s, p := r.Bool(), string(r.Bytes()), r.Bytes()
	is, _ := r.Ints(nil)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	for k, f := range fs {
		if math.Float64bits(f) != math.Float64bits(floats[k]) {
			t.Fatalf("float %d: bits %x, want %x", k, math.Float64bits(f), math.Float64bits(floats[k]))
		}
	}
	if got := encode(u, i, i64, fs, ok, s, p, is); !bytes.Equal(got, want) {
		t.Fatalf("decoded fields encode to %x, want %x", got, want)
	}
}

// The reader takes one encoding per value and sizes nothing from a count the
// bytes cannot hold; the first damage is what Err reports.
func TestReaderRefusesNonCanonical(t *testing.T) {
	cases := map[string]struct {
		b    []byte
		read func(*Reader)
		want string
	}{
		"overlong varint":  {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "not minimal"},
		"truncated varint": {[]byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		"bool of 2":        {[]byte{2}, func(r *Reader) { r.Bool() }, "neither 0 nor 1"},
		"short float":      {[]byte{1, 2, 3}, func(r *Reader) { r.Float() }, "truncated float64"},
		"float run":        {make([]byte, 15), func(r *Reader) { r.Floats(2) }, "truncated float64 run"},
		"count":            {[]byte{9, 1, 2}, func(r *Reader) { r.Count(1) }, "count exceeds"},
		"huge count":       {AppendUvarint(nil, 1<<62), func(r *Reader) { r.Count(8) }, "count exceeds"},
		"trailing bytes":   {[]byte{1, 1}, func(r *Reader) { r.Uvarint() }, "bytes after the last field"},
		"first damage":     {[]byte{2, 0x80, 0x00}, func(r *Reader) { r.Bool(); r.Uvarint() }, "neither 0 nor 1"},
	}
	for name, c := range cases {
		r := NewReader(c.b)
		c.read(&r)
		if err := r.Finish(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", name, err, c.want)
		}
		if r.Uvarint() != 0 || r.Count(1) != 0 {
			t.Errorf("%s: a damaged reader still reads", name)
		}
	}
}

// Unseal applies what read staged only when the seal holds, read succeeded
// and every byte was consumed; a gob file is named as the retired format.
func TestUnsealAppliesOnlyAWholeFile(t *testing.T) {
	file := Seal(AppendInt(AppendString(nil, "magic-v1"), 42))
	load := func(data []byte, fail bool) (applied bool, err error) {
		err = Unseal(data, func(r *Reader) (func(), error) {
			if err := r.Magic("magic-v1"); err != nil {
				return nil, err
			}
			r.Int()
			if fail {
				return nil, errors.New("refused")
			}
			return func() { applied = true }, nil
		})
		return applied, err
	}
	if applied, err := load(file, false); err != nil || !applied {
		t.Fatalf("a whole file: applied %v, err %v", applied, err)
	}
	flipped := append([]byte(nil), file...)
	flipped[3] ^= 1
	trailing := Seal(append(append([]byte(nil), file[:len(file)-32]...), 0))
	other := Seal(AppendString(nil, "magic-v0"))
	gob := append([]byte{0x2f, 0xff, 0x81}, "mrsch-ckpt-envelope-v1 and the rest of a gob stream"...)
	for name, c := range map[string]struct {
		data []byte
		fail bool
		want string
	}{
		"read refuses":  {file, true, "refused"},
		"flipped bit":   {flipped, false, "checksum mismatch"},
		"short file":    {file[:20], false, "checksum mismatch"},
		"trailing byte": {trailing, false, "bytes after the last field"},
		"other version": {other, false, `bad magic "magic-v0"`},
		"retired gob":   {gob, false, "retired gob format"},
		"empty":         {nil, false, "checksum mismatch"},
	} {
		if applied, err := load(c.data, c.fail); applied || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: applied %v, err %v, want %q", name, applied, err, c.want)
		}
	}
}
