package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func mustFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("the quick brown fox"),
		bytes.Repeat([]byte{0xAB, 0x00, 0xFF}, 10000),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	// All frames decode back, in order, from one contiguous stream.
	for i, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d round-tripped to %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	frame := mustFrame(t, []byte("precious payload bytes"))
	for bit := 0; bit < len(frame)*8; bit += 7 {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		_, err := ReadFrame(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bitflip at %d decoded cleanly", bit)
		}
		// Header-length flips can turn into truncation errors; both wrap
		// ErrCorruptFrame.
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bitflip at %d: error %v does not wrap ErrCorruptFrame", bit, err)
		}
	}
}

func TestTruncatedFrameDetected(t *testing.T) {
	frame := mustFrame(t, []byte("will be cut short"))
	for cut := 1; cut < len(frame); cut++ {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d surfaced as clean io.EOF", cut)
		}
	}
}

func TestDamageDoesNotDesyncEarlierFrames(t *testing.T) {
	// A healthy frame followed by a damaged one: the first decodes, the
	// second fails loudly. (Past the damage the stream is abandoned by
	// contract; what matters is that damage never corrupts earlier frames.)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	bad := []byte("damaged")
	if err := WriteRawFrame(&buf, bad, len(bad), Checksum(bad)^0xFFFF); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || string(got) != "healthy" {
		t.Fatalf("healthy frame: %q, %v", got, err)
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("damaged frame returned %v, want ErrCorruptFrame", err)
	}
}

func TestOversizeDeclaredLengthRejected(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrameBytes+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize length returned %v, want ErrCorruptFrame", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize error %q does not name the bound", err)
	}
}

func TestOversizePayloadRefusedAtWrite(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1))
	if err == nil {
		t.Fatal("oversize payload written cleanly")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write left %d bytes on the stream", buf.Len())
	}
}

func TestCleanCloseIsEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream returned %v, want io.EOF", err)
	}
	// EOF mid-header is damage, not a clean close.
	frame := mustFrame(t, []byte("abc"))
	if _, err := ReadFrame(bytes.NewReader(frame[:4])); err == io.EOF || err == nil {
		t.Fatalf("mid-header EOF returned %v, want a loud error", err)
	}
}

func TestGobPayloadRoundTripAndDamage(t *testing.T) {
	type msg struct {
		ID   uint64
		Vals []float64
	}
	in := msg{ID: 7, Vals: []float64{0.1, -2.5e-300, 3}}
	payload, err := EncodeGob(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := DecodeGob(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || len(out.Vals) != 3 || out.Vals[1] != in.Vals[1] {
		t.Fatalf("round trip changed the message: %+v -> %+v", in, out)
	}
	// Two encodings are independent streams: the second decodes alone.
	again, err := EncodeGob(&in)
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("second encoding differs from the first (err %v)", err)
	}
	for _, bad := range [][]byte{nil, payload[:len(payload)/2], []byte("not a gob stream")} {
		if err := DecodeGob(bad, &out); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("damaged payload returned %v, want ErrCorruptFrame", err)
		}
	}
	if _, err := EncodeGob(func() {}); err == nil {
		t.Fatal("an unencodable value encoded cleanly")
	}
}

// countingWriter records how many Write calls a frame took.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestFrameLeavesInOneWrite(t *testing.T) {
	payload := []byte("header and payload travel together")
	var w countingWriter
	if err := WriteFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.writes)
	}
	// A frame sealed in place is the frame WriteFrame writes.
	sealed := append(make([]byte, HeaderBytes), payload...)
	if err := SealFrame(sealed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, w.Bytes()) {
		t.Fatalf("sealed frame %x differs from the written frame %x", sealed, w.Bytes())
	}
	if err := SealFrame(make([]byte, HeaderBytes+MaxFrameBytes+1)); err == nil {
		t.Fatal("an oversize frame sealed cleanly")
	}
}

func TestReadFrameIntoReusesTheBuffer(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{[]byte("first frame, the longest of the three"), []byte("second"), nil}
	for _, p := range payloads {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 128)
	for i, want := range payloads {
		got, err := ReadFrameInto(&stream, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d read %q, want %q", i, got, want)
		}
		if &got[:1][0] != &buf[:1][0] {
			t.Fatalf("frame %d of %d bytes left the %d-byte buffer it was given", i, len(got), cap(buf))
		}
		buf = got
	}
	// A frame larger than the buffer arrives whole in a larger one.
	big := bytes.Repeat([]byte{7}, 3*firstReadAlloc+5)
	if err := WriteFrame(&stream, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameInto(&stream, buf)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: %d bytes, %v", len(got), err)
	}
}

// TestDeclaredLengthAloneAllocatesLittle: eight hostile bytes must not cost
// the receiver the 64 MiB they declare before a single payload byte arrives.
func TestDeclaredLengthAloneAllocatesLittle(t *testing.T) {
	var hdr [HeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptFrame) || !strings.Contains(err.Error(), "truncated payload") {
		t.Fatalf("header then EOF returned %v, want a truncated-payload ErrCorruptFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a bare header declaring %d bytes made ReadFrame allocate %d", MaxFrameBytes, got)
	}
}
