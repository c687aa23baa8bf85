package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// LineSize is the locking granularity of a Region, matching the 64-byte
// alignment unit the paper uses for leaf nodes. Accesses within one line are
// atomic with respect to each other; accesses spanning lines may be torn,
// exactly like multi-cache-line one-sided RDMA reads. Higher layers that
// need multi-line atomicity must use checksums or status fields (as Sphinx's
// leaf protocol does).
const LineSize = 64

const lineShards = 1024

// Region is the byte-addressable memory owned by one memory node.
//
// All accesses go through Read/Write/CompareSwap/FetchAdd, mirroring the
// one-sided RDMA verb set. Concurrency control is a sharded per-line lock
// table: single-line operations (including all 8-byte atomics) are
// linearizable, while multi-line transfers lock one line at a time and can
// therefore expose partially written data to concurrent readers.
type Region struct {
	node  NodeID
	buf   []byte
	locks [lineShards]sync.RWMutex
}

// NewRegion allocates a region of the given size for the given node.
// Size is rounded up to a whole number of lines.
func NewRegion(node NodeID, size uint64) *Region {
	if size > MaxOffset {
		panic(fmt.Sprintf("mem: region size %#x exceeds addressable range", size))
	}
	size = (size + LineSize - 1) &^ uint64(LineSize-1)
	return &Region{node: node, buf: make([]byte, size)}
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.buf)) }

func (r *Region) shard(line uint64) *sync.RWMutex {
	return &r.locks[line%lineShards]
}

// check panics on out-of-bounds access: in a real cluster this would be a
// protection-domain fault; in the simulation it is always a bug in the
// index code, so failing loudly is the right behaviour.
func (r *Region) check(offset, n uint64) {
	if offset+n > uint64(len(r.buf)) || offset+n < offset {
		panic(fmt.Sprintf("mem: access [%#x,%#x) outside region of %d bytes on node %d",
			offset, offset+n, len(r.buf), r.node))
	}
}

// Read copies len(dst) bytes starting at offset into dst.
// The copy is line-atomic but not transfer-atomic.
func (r *Region) Read(offset uint64, dst []byte) {
	r.check(offset, uint64(len(dst)))
	for done := 0; done < len(dst); {
		line := (offset + uint64(done)) / LineSize
		lineEnd := (line + 1) * LineSize
		n := int(lineEnd - (offset + uint64(done)))
		if rem := len(dst) - done; n > rem {
			n = rem
		}
		mu := r.shard(line)
		mu.RLock()
		copy(dst[done:done+n], r.buf[offset+uint64(done):])
		mu.RUnlock()
		done += n
	}
}

// Write copies src into the region starting at offset.
// The copy is line-atomic but not transfer-atomic.
func (r *Region) Write(offset uint64, src []byte) { r.WriteLines(offset, src, nil) }

// WriteLines is Write that, where between is not nil, calls it under no lock
// after each line but the last has landed, with the count of lines landed.
func (r *Region) WriteLines(offset uint64, src []byte, between func(lines int)) {
	r.check(offset, uint64(len(src)))
	for done, lines := 0, 1; done < len(src); lines++ {
		line := (offset + uint64(done)) / LineSize
		lineEnd := (line + 1) * LineSize
		n := int(lineEnd - (offset + uint64(done)))
		if rem := len(src) - done; n > rem {
			n = rem
		}
		mu := r.shard(line)
		mu.Lock()
		copy(r.buf[offset+uint64(done):], src[done:done+n])
		mu.Unlock()
		if done += n; between != nil && done < len(src) {
			between(lines)
		}
	}
}

// ReadUint64 atomically reads the 8-byte little-endian word at offset.
// Offset must be 8-byte aligned (RDMA atomics require alignment).
func (r *Region) ReadUint64(offset uint64) uint64 {
	r.checkAligned(offset)
	mu := r.shard(offset / LineSize)
	mu.RLock()
	v := binary.LittleEndian.Uint64(r.buf[offset:])
	mu.RUnlock()
	return v
}

// WriteUint64 atomically writes the 8-byte little-endian word at offset.
func (r *Region) WriteUint64(offset uint64, v uint64) {
	r.checkAligned(offset)
	mu := r.shard(offset / LineSize)
	mu.Lock()
	binary.LittleEndian.PutUint64(r.buf[offset:], v)
	mu.Unlock()
}

// CompareSwap atomically compares the word at offset with expect and, if
// equal, replaces it with desired. It returns the value observed before the
// operation; the swap succeeded iff the return value equals expect. This is
// the RDMA CAS verb.
func (r *Region) CompareSwap(offset uint64, expect, desired uint64) uint64 {
	r.checkAligned(offset)
	mu := r.shard(offset / LineSize)
	mu.Lock()
	old := binary.LittleEndian.Uint64(r.buf[offset:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[offset:], desired)
	}
	mu.Unlock()
	return old
}

// FetchAdd atomically adds delta to the word at offset and returns the value
// observed before the addition. This is the RDMA FAA verb.
func (r *Region) FetchAdd(offset uint64, delta uint64) uint64 {
	r.checkAligned(offset)
	mu := r.shard(offset / LineSize)
	mu.Lock()
	old := binary.LittleEndian.Uint64(r.buf[offset:])
	binary.LittleEndian.PutUint64(r.buf[offset:], old+delta)
	mu.Unlock()
	return old
}

func (r *Region) checkAligned(offset uint64) {
	r.check(offset, 8)
	if offset%8 != 0 {
		panic(fmt.Sprintf("mem: atomic access at unaligned offset %#x on node %d", offset, r.node))
	}
}
