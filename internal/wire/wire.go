// Package wire implements the length-prefixed checksummed frame codec shared
// by the distributed-campaign protocol (internal/distrib) and the decision
// service (internal/serve). Every message travels in one frame:
//
//	uint32 payload length (big endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload bytes (one self-contained encoding)
//
// Frames are self-delimiting and independently decodable, so a single
// damaged frame is detectable (CRC failure) without desynchronizing a
// healthy stream, and a truncated frame surfaces as an unexpected EOF.
// There is no in-band resynchronization: a receiver that sees ErrCorruptFrame
// treats the peer as corrupt and abandons the connection. A frame leaves in
// one Write, header and payload together, so a TCP_NODELAY connection sends
// one segment per small frame.
//
// It also owns the repository's one canonical field codec (codec.go): a
// uvarint for uint64s and counts, a zig-zag uvarint for ints, a float64 as
// its 64 bits little-endian (NaN payloads, -0 and ±Inf survive), a bool as
// one byte 0 or 1, a string or byte slice as its count then its bytes. A
// Reader takes a varint only if it is minimal, holds every count against the
// bytes still unread before anything is sized from it, and latches the first
// damage, so decoding then encoding is the identity. The decision service's
// six messages (internal/serve/protocol.go) are fields of it, read and
// written through buffers they keep (SealFrame, ReadFrameInto). So is every
// durable file, a model's weights or a train checkpoint: sections, each
// behind a magic-and-version string, sealed by one SHA-256 (Seal) and loaded
// by Unseal, which applies nothing unless the whole file decoded and checked.
//
// The campaign protocol (internal/distrib) does not use the field codec, on
// purpose: it sends one frame per campaign cell, seconds of simulation apart,
// and its messages carry metrics.Report and FaultPlan, types that grow with
// the experiments. It stays on EncodeGob/DecodeGob, one independent gob
// stream per frame, whose per-frame cost no committed workload measures; gob
// frames are never written to disk.
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

// HeaderBytes is the size of the frame header: what SealFrame expects at the
// front of a frame built in place.
const HeaderBytes = 8

// firstReadAlloc caps what a declared length alone can make ReadFrameInto
// allocate: past it the buffer grows only as payload bytes actually arrive.
const firstReadAlloc = 64 << 10

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
// path goes through WriteFrame or SealFrame.
func WriteRawFrame(w io.Writer, payload []byte, declaredLen int, sum uint32) error {
	frame := make([]byte, HeaderBytes+len(payload))
	putHeader(frame, declaredLen, sum)
	copy(frame[HeaderBytes:], payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// SealFrame completes a frame built in place: frame[:HeaderBytes] is space
// the caller left for the header, frame[HeaderBytes:] the payload. After it
// returns nil the whole slice is one well-formed frame, ready for a single
// Write — what WriteFrame produces, without its copy.
func SealFrame(frame []byte) error {
	payload := frame[HeaderBytes:]
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte frame bound", len(payload), MaxFrameBytes)
	}
	putHeader(frame, len(payload), Checksum(payload))
	return nil
}

func putHeader(frame []byte, declaredLen int, sum uint32) {
	binary.BigEndian.PutUint32(frame[0:4], uint32(declaredLen))
	binary.BigEndian.PutUint32(frame[4:8], sum)
}

// ReadFrame reads one frame and returns its verified payload. io.EOF passes
// through untouched so callers can distinguish a clean close from damage; any
// length or checksum problem wraps ErrCorruptFrame.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame into storage the caller keeps: the payload is
// returned in buf's backing array when it fits (buf's contents are
// overwritten, its length ignored) and in a larger one otherwise, so a
// connection that passes the previous frame's payload back reads its steady
// traffic without allocating. The buffer grows as payload bytes arrive, never
// from the declared length alone: a hostile header costs at most
// firstReadAlloc bytes before the stream has to deliver.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:0] // parsed before the payload overwrites it
	if cap(hdr) < HeaderBytes {
		hdr = make([]byte, HeaderBytes)
	}
	hdr = hdr[:HeaderBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds the %d-byte bound", ErrCorruptFrame, n, MaxFrameBytes)
	}
	payload := buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(n, max(2*cap(payload), firstReadAlloc)))
			copy(grown, payload)
			payload = grown
		}
		m, err := io.ReadFull(r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+m]
		if err != nil {
			return nil, fmt.Errorf("%w: truncated payload (%d bytes declared): %v", ErrCorruptFrame, n, err)
		}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (header %08x, payload %08x)", ErrCorruptFrame, sum, got)
	}
	return payload, nil
}

// EncodeGob encodes v as one independent gob stream, the payload of one
// frame: every frame re-sends its type descriptors, so any frame decodes
// without the ones before it. That costs a few hundred bytes and several
// hundred allocations a frame, which is why internal/serve does not use it
// (package doc); internal/distrib does.
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
