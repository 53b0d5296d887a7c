// Package wire implements the length-prefixed checksummed frame codec shared
// by the distributed-campaign protocol (internal/distrib) and the decision
// service (internal/serve). Every message travels in one frame:
//
//	uint32 payload length (big endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload bytes (one self-contained encoding, typically an independent
//	gob stream)
//
// Frames are self-delimiting and independently decodable, so a single
// damaged frame is detectable (CRC failure) without desynchronizing a
// healthy stream, and a truncated frame surfaces as an unexpected EOF.
// There is no in-band resynchronization: a receiver that sees ErrCorruptFrame
// treats the peer as corrupt and abandons the connection. Both protocols
// carry one typed message per frame through EncodeGob/DecodeGob.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameBytes bounds a frame's declared payload length. A corrupt length
// prefix must not make the receiver allocate gigabytes before the CRC gets a
// chance to reject the payload.
const MaxFrameBytes = 64 << 20

// ErrCorruptFrame marks a frame whose length or checksum is damaged (callers
// layering an encoding on top wrap their decode failures in it too). Receivers
// map it to peer death: the stream cannot be trusted past the damage.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// Checksum returns the CRC-32 (IEEE) of the payload — the sum WriteFrame
// stamps into the header, exported so fault harnesses can build deliberately
// mismatched frames via WriteRawFrame.
func Checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// WriteFrame writes payload as one well-formed frame. Writers serialize
// frames themselves (callers that interleave frames from multiple goroutines
// hold a mutex around the call).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte frame bound", len(payload), MaxFrameBytes)
	}
	return WriteRawFrame(w, payload, len(payload), Checksum(payload))
}

// WriteRawFrame writes a frame with the length and checksum the header
// claims, independent of the actual payload bytes. Fault harnesses call it
// with a deliberately wrong combination (flipped payload byte, over-long
// declared length) to manufacture corrupt and truncated frames; every healthy
// path goes through WriteFrame.
func WriteRawFrame(w io.Writer, payload []byte, declaredLen int, sum uint32) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(declaredLen))
	binary.BigEndian.PutUint32(hdr[4:8], sum)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame and returns its verified payload. io.EOF passes
// through untouched so callers can distinguish a clean close from damage; any
// length or checksum problem wraps ErrCorruptFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds the %d-byte bound", ErrCorruptFrame, n, MaxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (%d bytes declared): %v", ErrCorruptFrame, n, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (header %08x, payload %08x)", ErrCorruptFrame, sum, got)
	}
	return payload, nil
}

// EncodeGob encodes v as one independent gob stream, the payload of one
// frame: every frame re-sends its type descriptors, so any frame decodes
// without the ones before it.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGob decodes one verified frame payload into v. Gob damage wraps
// ErrCorruptFrame like any other frame corruption.
func DecodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding payload: %v", ErrCorruptFrame, err)
	}
	return nil
}
