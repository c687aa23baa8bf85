// Package racehash implements the Inner Node Hash Table (paper §III-A): a
// RACE-style [22] extendible hash table living in memory-node memory and
// operated entirely with one-sided verbs. It maps an inner node's full
// prefix to an 8-byte wire.HashEntry, and guarantees that any lookup
// completes in a single round trip once the client's directory cache is
// warm — the property Sphinx's "read one hash entry instead of traversing"
// fast path depends on.
//
// # Layout
//
// Each memory node hosts one table for the inner nodes placed on it. A
// table is:
//
//   - a meta block: word0 packs [globalDepth:8 | directoryAddr:48], word1 is
//     the table-wide split lock;
//   - a directory: 2^globalDepth words, each packing
//     [localDepth:8 | segmentAddr:48];
//   - segments: SegBuckets buckets of 64 bytes. A bucket is a header word
//     [marker | splitLock | localDepth:8 | suffix:40] followed by
//     EntriesPerBucket hash-entry words.
//
// A key's placement hash is its 42-bit full-prefix hash (wire.PrefixHash42)
// — deliberately the same value stored in every inner node's header, so a
// splitting client can re-derive any entry's placement by reading the
// node's header word, which is what makes one-sided segment splits possible
// (entries alone are too small to carry their key).
//
// # Concurrency
//
// Entry reads take no locks. Entry writes are single-word CAS, followed in
// the same doorbell batch by a read of the bucket header; if the header's
// split lock was set, a splitting client may have missed the write, so the
// writer waits for the split and re-verifies (see view.go). The insert of a
// word no table holds needs no read ahead of its CAS: it guesses an empty
// slot and re-checks against the header its directory cache predicts
// (AppendFreshInsert). Splits take the per-table split lock, lock every
// bucket header of the old segment, and publish the new segment before
// rewriting the old one, so readers always find live entries; an entry whose
// hash the segment does not cover — a CAS that landed on a stale directory —
// is dropped, its writer having inserted it at home.
package racehash

import (
	"fmt"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Table geometry.
const (
	// SegBuckets is the number of buckets per segment (a 4 KiB segment).
	SegBuckets = 64
	// EntriesPerBucket is the number of hash entries per 64-byte bucket;
	// the eighth word is the bucket header.
	EntriesPerBucket = 7
	// BucketSize is the on-wire size of one bucket.
	BucketSize = 64
	// SegmentSize is the on-wire size of one segment.
	SegmentSize = SegBuckets * BucketSize
	// MaxGlobalDepth bounds directory growth; 2^28 segments is far beyond
	// any simulation this repository runs.
	MaxGlobalDepth = 28
)

// Meta block layout.
const (
	metaWordOff = 0 // [globalDepth:8 | dirAddr:48]
	metaLockOff = 8 // table-wide split lock: 0 free, 1 held
	// MetaSize is the allocation size of the meta block.
	MetaSize = mem.LineSize
)

// Table identifies one memory node's inner-node hash table. It is built at
// bootstrap and shared read-only by all clients.
type Table struct {
	Node mem.NodeID
	Meta mem.Addr
}

// packMeta builds the meta word.
func packMeta(depth uint8, dir mem.Addr) uint64 {
	return uint64(depth)<<mem.AddrBits | uint64(dir)&(1<<mem.AddrBits-1)
}

// unpackMeta splits the meta word.
func unpackMeta(w uint64) (depth uint8, dir mem.Addr) {
	return uint8(w >> mem.AddrBits), mem.Addr(w & (1<<mem.AddrBits - 1))
}

// packDirEntry builds a directory word.
func packDirEntry(localDepth uint8, seg mem.Addr) uint64 {
	return uint64(localDepth)<<mem.AddrBits | uint64(seg)&(1<<mem.AddrBits-1)
}

// unpackDirEntry splits a directory word.
func unpackDirEntry(w uint64) (localDepth uint8, seg mem.Addr) {
	return uint8(w >> mem.AddrBits), mem.Addr(w & (1<<mem.AddrBits - 1))
}

// Bucket header word:
//
//	bit  63      marker (always 1 once initialized)
//	bit  62      split lock
//	bits 48..55  localDepth
//	bits  0..39  suffix (low localDepth bits of placement hashes stored here)
const (
	hdrMarker    = uint64(1) << 63
	hdrSplitLock = uint64(1) << 62
	hdrDepthOff  = 48
	hdrSuffixCap = uint64(1)<<40 - 1
)

func packBucketHeader(localDepth uint8, suffix uint64, locked bool) uint64 {
	w := hdrMarker | uint64(localDepth)<<hdrDepthOff | suffix&hdrSuffixCap
	if locked {
		w |= hdrSplitLock
	}
	return w
}

func unpackBucketHeader(w uint64) (localDepth uint8, suffix uint64, locked bool) {
	return uint8(w >> hdrDepthOff), w & hdrSuffixCap, w&hdrSplitLock != 0
}

// headerMatches reports whether a bucket header is valid for placement
// hash h: the low localDepth bits of h equal the bucket's suffix. A
// mismatch means the client's directory cache is stale.
func headerMatches(w uint64, h uint64) bool {
	if w&hdrMarker == 0 {
		return false
	}
	d, suffix, _ := unpackBucketHeader(w)
	return h&depthMask(d) == suffix
}

func depthMask(depth uint8) uint64 { return uint64(1)<<depth - 1 }

// PlacementHash returns the placement hash of a prefix: its 42-bit
// full-prefix hash. The same value is stored in the inner node's header,
// which is what lets splits re-derive entry placement.
func PlacementHash(prefix []byte) uint64 { return wire.PrefixHash42(prefix) }

// bucketPair returns the two candidate bucket indices within a segment for
// a placement hash. Both are derived deterministically from the hash alone.
func bucketPair(h uint64) (b1, b2 int) {
	m1 := wire.Mix64(h ^ 0xa5a5a5a5a5a5a5a5)
	m2 := wire.Mix64(h ^ 0x5a5a5a5a5a5a5a5a)
	b1 = int(m1 % SegBuckets)
	b2 = int(m2 % SegBuckets)
	if b2 == b1 {
		b2 = (b1 + 1) % SegBuckets
	}
	return b1, b2
}

// InitialDepth returns a directory depth sized so the table holds
// expectedEntries at roughly half load, leaving headroom before splits.
func InitialDepth(expectedEntries int) uint8 {
	perSeg := SegBuckets * EntriesPerBucket / 2
	depth := uint8(0)
	for (1<<depth)*perSeg < expectedEntries && depth < MaxGlobalDepth {
		depth++
	}
	return depth
}

// Bootstrap builds an empty table on the given memory node using direct
// (cost-free) region access; it runs during cluster setup, before clients
// exist. The allocator must target the same node.
func Bootstrap(region *mem.Region, alloc *mem.Allocator, node mem.NodeID, expectedEntries int) (Table, error) {
	depth := InitialDepth(expectedEntries)
	nSegs := 1 << depth

	meta, err := alloc.Alloc(node, mem.ClassMeta, MetaSize)
	if err != nil {
		return Table{}, fmt.Errorf("racehash: alloc meta: %w", err)
	}
	dir, err := alloc.Alloc(node, mem.ClassHash, uint64(nSegs)*8)
	if err != nil {
		return Table{}, fmt.Errorf("racehash: alloc directory: %w", err)
	}
	for i := 0; i < nSegs; i++ {
		seg, err := alloc.Alloc(node, mem.ClassHash, SegmentSize)
		if err != nil {
			return Table{}, fmt.Errorf("racehash: alloc segment: %w", err)
		}
		writeEmptySegment(region, seg, depth, uint64(i))
		region.WriteUint64(dir.Offset()+uint64(i)*8, packDirEntry(depth, seg))
	}
	region.WriteUint64(meta.Offset()+metaWordOff, packMeta(depth, dir))
	region.WriteUint64(meta.Offset()+metaLockOff, 0)
	return Table{Node: node, Meta: meta}, nil
}

// writeEmptySegment initializes all bucket headers of a fresh segment.
func writeEmptySegment(region *mem.Region, seg mem.Addr, localDepth uint8, suffix uint64) {
	buf := make([]byte, SegmentSize)
	for b := 0; b < SegBuckets; b++ {
		putUint64(buf[b*BucketSize:], packBucketHeader(localDepth, suffix, false))
	}
	region.Write(seg.Offset(), buf)
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
