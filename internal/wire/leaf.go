package wire

import (
	"encoding/binary"
	"fmt"

	"sphinx/internal/mem"
)

// Leaf layout (paper Fig. 3). Leaves are aligned and padded to 64-byte
// units; LeafLen counts those units so the whole leaf can be fetched in one
// READ once its header is known (and over-fetched speculatively before).
//
//	word0 (8 B): bits 0..1  status
//	             bits 2..9  leafLen, in 64-byte units
//	             bits 10..21 keyLen  (≤ MaxDepth)
//	             bits 22..37 valLen
//	word1 (8 B): checksum over (keyLen, valLen, key, value)
//	bytes 16..:  key bytes, then value bytes, zero-padded to 64·leafLen
//
// The checksum is what makes the paper's single-WRITE in-place update safe:
// a reader that races with an update sees either the old or the new leaf
// image, or a torn mix whose checksum fails, in which case it retries.
const (
	LeafHeaderSize = 16
	LeafUnit       = mem.LineSize

	// MaxLeafUnits bounds a leaf at 255 units = 16320 bytes.
	MaxLeafUnits = 1<<8 - 1
	// MaxValueLen bounds the value field (16-bit length).
	MaxValueLen = 1<<16 - 1
)

// LeafHeader is the decoded first word of a leaf.
type LeafHeader struct {
	Status Status
	Units  uint8  // leaf length in 64-byte units
	KeyLen uint16 // 12 bits
	ValLen uint32 // 16 bits
}

// Encode packs the leaf header word.
func (h LeafHeader) Encode() uint64 {
	if h.KeyLen > MaxDepth {
		panic(fmt.Sprintf("wire: key length %d exceeds max %d", h.KeyLen, MaxDepth))
	}
	if h.ValLen > MaxValueLen {
		panic(fmt.Sprintf("wire: value length %d exceeds max %d", h.ValLen, MaxValueLen))
	}
	return uint64(h.Status)&3 |
		uint64(h.Units)<<2 |
		uint64(h.KeyLen)<<10 |
		uint64(h.ValLen)<<22
}

// DecodeLeafHeader unpacks a leaf header word.
func DecodeLeafHeader(w uint64) LeafHeader {
	return LeafHeader{
		Status: Status(w & 3),
		Units:  uint8(w >> 2),
		KeyLen: uint16(w >> 10 & MaxDepth),
		ValLen: uint32(w >> 22 & MaxValueLen),
	}
}

// LeafSize returns the padded on-wire size of a leaf holding the given key
// and value lengths.
func LeafSize(keyLen, valLen int) uint64 {
	return mem.Align(uint64(LeafHeaderSize+keyLen+valLen), LeafUnit)
}

// LeafChecksum computes the integrity checksum of a leaf's logical content.
// Status is deliberately excluded: locking and unlocking a leaf must not
// invalidate its checksum.
func LeafChecksum(key, value []byte) uint64 {
	var lens [8]byte
	binary.LittleEndian.PutUint32(lens[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(lens[4:], uint32(len(value)))
	h := Hash64(lens[:])
	h = Mix64(h ^ Hash64Seed(key, 2))
	h = Mix64(h ^ Hash64Seed(value, 3))
	return h
}

// EncodeLeaf serializes a leaf with the given status into a fresh padded
// buffer ready for a single WRITE.
func EncodeLeaf(status Status, key, value []byte) []byte {
	units := LeafSize(len(key), len(value)) / LeafUnit
	if units > MaxLeafUnits {
		panic(fmt.Sprintf("wire: leaf of %d bytes exceeds max size", units*LeafUnit))
	}
	return EncodeLeafInto(nil, status, uint8(units), key, value)
}

// EncodeLeafInto serializes a leaf occupying exactly units 64-byte units —
// its allocated footprint, which an in-place update must preserve and may
// exceed what (key, value) need — into buf, reallocating only when buf is
// too small, and returns the image. Everything past the value is zeroed, so
// a reused buf (or a longer previous value on the memory node) leaves no
// stale bytes. key and value must not alias buf.
func EncodeLeafInto(buf []byte, status Status, units uint8, key, value []byte) []byte {
	size := int(units) * LeafUnit
	end := LeafHeaderSize + len(key) + len(value)
	if end > size {
		panic(fmt.Sprintf("wire: leaf of %d bytes exceeds its %d units", end, units))
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	h := LeafHeader{Status: status, Units: units, KeyLen: uint16(len(key)), ValLen: uint32(len(value))}
	binary.LittleEndian.PutUint64(buf[0:], h.Encode())
	binary.LittleEndian.PutUint64(buf[8:], LeafChecksum(key, value))
	copy(buf[LeafHeaderSize:], key)
	copy(buf[LeafHeaderSize+len(key):], value)
	clear(buf[end:])
	return buf
}

// DecodeLeaf parses and verifies a leaf image. It returns ok=false if the
// buffer is too short for the declared lengths or the checksum does not
// match (a torn read); the caller must retry the READ. Key and value alias
// buf and must be copied if retained.
func DecodeLeaf(buf []byte) (key, value []byte, status Status, ok bool) {
	if len(buf) < LeafHeaderSize {
		return nil, nil, 0, false
	}
	h := DecodeLeafHeader(binary.LittleEndian.Uint64(buf[0:]))
	end := LeafHeaderSize + int(h.KeyLen) + int(h.ValLen)
	if end > len(buf) {
		return nil, nil, 0, false
	}
	key = buf[LeafHeaderSize : LeafHeaderSize+int(h.KeyLen)]
	value = buf[LeafHeaderSize+int(h.KeyLen) : end]
	if binary.LittleEndian.Uint64(buf[8:]) != LeafChecksum(key, value) {
		return nil, nil, 0, false
	}
	return key, value, h.Status, true
}
