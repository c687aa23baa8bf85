package racehash

import (
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// split grows the table when the candidate buckets for h are full. It is
// the extendible-hashing resize of RACE [22], driven entirely by one-sided
// verbs from the inserting client:
//
//  1. take the table-wide split lock (meta block, CAS);
//  2. if the segment's local depth equals the global depth, double the
//     directory;
//  3. set the split-lock bit in every bucket header of the old segment
//     (one doorbell batch of CAS) — entry writers that race with the split
//     detect this bit and re-verify afterwards;
//  4. read the old segment, then batch-read the header word of every
//     referenced inner node to recover each entry's placement hash (the
//     42-bit prefix hash is stored in both places by design);
//  5. write the fully built new segment, repoint the affected directory
//     words, rewrite the old segment with depth+1 headers and the lock
//     bits cleared;
//  6. release the table lock and re-insert any entries that no longer fit
//     their rebuilt buckets.
//
// Publishing the new segment before rewriting the old one means a reader
// can always find a live entry: through the old segment until the
// directory flips, through the new one after.
//
// The table lock's holder is a live client splitting another segment, whom
// nobody takes the lock from, so the polls wait as every wait on a live holder
// does (fabric.Backoff.WaitHolder, like waitSplit's): long enough to outlast
// the host keeping the holder off the CPU, and no longer on an idle box than
// on a busy one.
func (v *View) split(h uint64, alloc *mem.Allocator) error {
	lockAddr := v.t.Meta.Add(metaLockOff)
	for b := (fabric.BackoffPolicy{}).Start(v.c); ; {
		old, err := v.c.CompareSwap(lockAddr, 0, 1)
		if err != nil {
			return err
		}
		if old == 0 {
			break
		}
		if !b.WaitHolder() {
			return fmt.Errorf("%w: table split lock", ErrRetryExhausted)
		}
	}
	leftovers, err := v.splitLocked(h, alloc)
	if uerr := v.c.WriteUint64(lockAddr, 0); uerr != nil && err == nil {
		err = uerr
	}
	if err != nil {
		return err
	}
	for _, lo := range leftovers {
		atomic.AddUint64(&v.stats.Reinserted, 1)
		if err := v.Insert(lo.h, lo.entry, alloc); err != nil {
			return fmt.Errorf("racehash: re-inserting split leftover: %w", err)
		}
	}
	return nil
}

type leftover struct {
	h     uint64
	entry wire.HashEntry
}

func (v *View) splitLocked(h uint64, alloc *mem.Allocator) ([]leftover, error) {
	if err := v.refresh(); err != nil {
		return nil, err
	}
	// Another client may have split this segment while we waited for the
	// lock; if the candidate buckets have room now, there is nothing to do.
	p, err := v.read(h)
	if err != nil {
		return nil, err
	}
	if _, ok := p.find(0); ok {
		return nil, nil
	}

	dirIdx := h & depthMask(v.depth)
	localDepth, segAddr := unpackDirEntry(v.dir[dirIdx])
	if localDepth >= MaxGlobalDepth {
		return nil, fmt.Errorf("racehash: segment at max depth %d", localDepth)
	}
	if localDepth == v.depth {
		if err := v.doubleDirectory(alloc); err != nil {
			return nil, err
		}
	}
	suffix := h & depthMask(localDepth)
	atomic.AddUint64(&v.stats.Splits, 1)

	// Lock every bucket header of the old segment in one doorbell batch.
	unlocked := packBucketHeader(localDepth, suffix, false)
	locked := packBucketHeader(localDepth, suffix, true)
	lockOps := make([]fabric.Op, SegBuckets)
	for b := 0; b < SegBuckets; b++ {
		lockOps[b] = fabric.Op{
			Kind: fabric.CAS, Addr: segAddr.Add(uint64(b) * BucketSize),
			Expect: unlocked, Desired: locked,
		}
	}
	if err := v.c.Batch(lockOps); err != nil {
		return nil, err
	}
	for b := range lockOps {
		if lockOps[b].Old != unlocked {
			return nil, fmt.Errorf("racehash: bucket %d header %#x unexpected during split", b, lockOps[b].Old)
		}
	}

	// Snapshot the segment and recover every entry's placement hash from
	// its inner node's header word.
	segBuf := make([]byte, SegmentSize)
	if err := v.c.Read(segAddr, segBuf); err != nil {
		return nil, err
	}
	type liveEntry struct {
		word uint64
		h    uint64
	}
	var live []liveEntry
	var hdrOps []fabric.Op
	var hdrBufs [][8]byte
	for b := 0; b < SegBuckets; b++ {
		for s := 0; s < EntriesPerBucket; s++ {
			w := getUint64(segBuf[b*BucketSize+8*(1+s):])
			if w == 0 {
				continue
			}
			live = append(live, liveEntry{word: w})
			hdrBufs = append(hdrBufs, [8]byte{})
		}
	}
	for i := range live {
		e := wire.DecodeHashEntry(live[i].word)
		hdrOps = append(hdrOps, fabric.Op{Kind: fabric.Read, Addr: e.Addr, Data: hdrBufs[i][:]})
	}
	if len(hdrOps) > 0 {
		if err := v.c.Batch(hdrOps); err != nil {
			return nil, err
		}
	}
	for i := range live {
		live[i].h = wire.DecodeNodeHeader(getUint64(hdrBufs[i][:])).PrefixHash
	}

	// Build both segment images locally.
	newDepth := localDepth + 1
	newSuffix := suffix | uint64(1)<<localDepth
	oldImg := emptySegmentImage(newDepth, suffix)
	newImg := emptySegmentImage(newDepth, newSuffix)
	var leftovers []leftover
	for _, le := range live {
		if le.h&depthMask(localDepth) != suffix {
			// An orphan: an entry CAS that landed here on a stale directory
			// cache, when this was no longer its hash's home. No lookup
			// reaches it, and its writer inserts the word at home (settle);
			// moved along, it would survive there as a second copy.
			continue
		}
		img := oldImg
		if le.h>>localDepth&1 == 1 {
			img = newImg
		}
		if !placeEntry(img, le.h, le.word) {
			leftovers = append(leftovers, leftover{h: le.h, entry: wire.DecodeHashEntry(le.word)})
		}
	}

	newSeg, err := alloc.Alloc(v.t.Node, mem.ClassHash, SegmentSize)
	if err != nil {
		return nil, err
	}
	if err := v.c.Write(newSeg, newImg); err != nil {
		return nil, err
	}

	// Repoint the directory: every index with the old suffix splits on bit
	// localDepth between the two segments, both at depth+1.
	var dirOps []fabric.Op
	for j := uint64(0); j < uint64(1)<<v.depth; j++ {
		if j&depthMask(localDepth) != suffix {
			continue
		}
		var w uint64
		if j>>localDepth&1 == 1 {
			w = packDirEntry(newDepth, newSeg)
		} else {
			w = packDirEntry(newDepth, segAddr)
		}
		v.dir[j] = w
		buf := make([]byte, 8)
		putUint64(buf, w)
		dirOps = append(dirOps, fabric.Op{Kind: fabric.Write, Addr: v.dirAddr.Add(j * 8), Data: buf})
	}
	for len(dirOps) > 0 {
		n := len(dirOps)
		if n > 256 {
			n = 256
		}
		if err := v.c.Batch(dirOps[:n]); err != nil {
			return nil, err
		}
		dirOps = dirOps[n:]
	}

	// Finally rewrite the old segment: moved entries gone, headers at the
	// new depth, lock bits cleared.
	if err := v.c.Write(segAddr, oldImg); err != nil {
		return nil, err
	}
	return leftovers, nil
}

// doubleDirectory doubles the directory under the table lock: the new
// half mirrors the old, then the meta word flips atomically. Readers
// holding the old directory stay correct — its entries still point at
// valid segments — and migrate on their next suffix-mismatch refresh.
func (v *View) doubleDirectory(alloc *mem.Allocator) error {
	if v.depth >= MaxGlobalDepth {
		return fmt.Errorf("racehash: directory at max depth %d", v.depth)
	}
	newDepth := v.depth + 1
	half := uint64(1) << v.depth
	buf := make([]byte, (uint64(1)<<newDepth)*8)
	for i := uint64(0); i < half; i++ {
		putUint64(buf[i*8:], v.dir[i])
		putUint64(buf[(i+half)*8:], v.dir[i])
	}
	newDir, err := alloc.Alloc(v.t.Node, mem.ClassHash, uint64(len(buf)))
	if err != nil {
		return err
	}
	if err := v.c.Write(newDir, buf); err != nil {
		return err
	}
	if err := v.c.WriteUint64(v.t.Meta.Add(metaWordOff), packMeta(newDepth, newDir)); err != nil {
		return err
	}
	newCache := make([]uint64, 1<<newDepth)
	copy(newCache, v.dir)
	copy(newCache[half:], v.dir)
	v.depth = newDepth
	v.dir = newCache
	v.dirAddr = newDir
	atomic.AddUint64(&v.stats.DirDoubles, 1)
	return nil
}

// emptySegmentImage builds a segment image with initialized headers.
func emptySegmentImage(localDepth uint8, suffix uint64) []byte {
	img := make([]byte, SegmentSize)
	for b := 0; b < SegBuckets; b++ {
		putUint64(img[b*BucketSize:], packBucketHeader(localDepth, suffix, false))
	}
	return img
}

// placeEntry stores an entry word into one of its candidate buckets in a
// local segment image; false if both are full.
func placeEntry(img []byte, h uint64, word uint64) bool {
	b1, b2 := bucketPair(h)
	for _, b := range [2]int{b1, b2} {
		for s := 0; s < EntriesPerBucket; s++ {
			off := b*BucketSize + 8*(1+s)
			if getUint64(img[off:]) == 0 {
				putUint64(img[off:], word)
				return true
			}
		}
	}
	return false
}
