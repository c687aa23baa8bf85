package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
//	             bits 38..53 owner of a Locked word: client ID + 1
//	word1 (8 B): checksum over (keyLen, valLen, key, value), LeafChecksum
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

// leafOwnerShift places a Locked leaf word's owner (LockedLeafWord).
const leafOwnerShift = 38

// LockedLeafWord is the Locked form of leaf header word w, naming owner (a
// client ID) in bits 38..53 — two writers of same-length values install
// different words, so a CAS releasing one's lock cannot free the other's.
func LockedLeafWord(w uint64, owner uint16) uint64 {
	return WithStatus(IdleLeafWord(w), StatusLocked) | uint64(owner+1)<<leafOwnerShift
}

// IdleLeafWord is the Idle form of leaf header word w: status Idle, no owner.
func IdleLeafWord(w uint64) uint64 {
	return WithStatus(w, StatusIdle) &^ ((1<<16 - 1) << leafOwnerShift)
}

// LeafLockOwner returns the owner a Locked leaf word names; tagged is false
// for a word that names none.
func LeafLockOwner(w uint64) (owner uint16, tagged bool) {
	o := uint16(w >> leafOwnerShift)
	return o - 1, o != 0
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

// LeafChecksum computes the integrity checksum of a leaf's logical content:
// both lengths, the key and the value. Status is deliberately excluded:
// locking and unlocking a leaf must not invalidate its checksum.
//
// Key and value are hashed as one stream, key‖value, in 8-byte words — the
// leaf's words from byte 16 on, the last one zero-padded. Word i goes to
// lane i mod 4, and each step is a bijection of its lane's state (XOR the
// word in, multiply by an odd constant, rotate), as is the lanes' combination
// in any one lane and Mix64 at the end. So two images whose lengths agree and
// whose contents differ in one 8-byte word never share a checksum; an image
// torn from two writes (whole 64-byte lines of each) shares one with either
// with probability about 2⁻⁶⁴.
func LeafChecksum(key, value []byte) uint64 {
	words := (len(key) + len(value) + 7) / 8
	a, b, c, d := uint64(sumSeed0)^uint64(len(key))<<32^uint64(len(value)), uint64(sumSeed1), uint64(sumSeed2), uint64(sumSeed3)
	a, b, c, d, tail := sumWords(a, b, c, d, key)
	if len(tail) > 0 {
		// The word the key's last bytes and the value's first bytes share.
		var w [8]byte
		n := copy(w[:], tail)
		value = value[copy(w[n:], value):]
		a, b, c, d = b, c, d, sumStep(a, binary.LittleEndian.Uint64(w[:]))
	}
	a, b, c, d, tail = sumWords(a, b, c, d, value)
	if len(tail) > 0 {
		var w [8]byte
		copy(w[:], tail)
		a, b, c, d = b, c, d, sumStep(a, binary.LittleEndian.Uint64(w[:]))
	}
	// a is the lane of the next word: turn lane 0 back into a.
	for range words % 4 {
		a, b, c, d = d, a, b, c
	}
	return Mix64(a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48))
}

// The lanes' seeds and the odd multiplier of a lane step.
const (
	sumSeed0 = 0x9e3779b97f4a7c15
	sumSeed1 = 0xc2b2ae3d27d4eb4f
	sumSeed2 = 0x165667b19e3779f9
	sumSeed3 = 0x27d4eb2f165667c5
	sumPrime = 0x9fb21c651e98df25
)

// sumStep absorbs word w into lane state x.
func sumStep(x, w uint64) uint64 { return bits.RotateLeft64((x^w)*sumPrime, 31) }

// sumWords absorbs p's whole words into the lanes, a the lane of the first,
// and returns the lanes rotated so that a is the lane of the next word, and
// p's bytes past its last whole word.
func sumWords(a, b, c, d uint64, p []byte) (uint64, uint64, uint64, uint64, []byte) {
	for ; len(p) >= 32; p = p[32:] {
		a = sumStep(a, binary.LittleEndian.Uint64(p[0:8]))
		b = sumStep(b, binary.LittleEndian.Uint64(p[8:16]))
		c = sumStep(c, binary.LittleEndian.Uint64(p[16:24]))
		d = sumStep(d, binary.LittleEndian.Uint64(p[24:32]))
	}
	for ; len(p) >= 8; p = p[8:] {
		a, b, c, d = b, c, d, sumStep(a, binary.LittleEndian.Uint64(p))
	}
	return a, b, c, d, p
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
