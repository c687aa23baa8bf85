package racehash

import (
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Walk visits every valid entry of the table, invoking fn for each. It
// reads the directory once, deduplicates segment pointers (after a split
// short of a directory double, multiple directory slots alias one
// segment), then reads whole segments — paying one round trip per segment
// on top of the directory fetch.
//
// Walk is a best-effort snapshot: entries inserted, removed or moved by a
// concurrent split during the walk may be seen zero or two times. Callers
// (the anti-entropy repair sweeper) must therefore be idempotent per entry
// and rely on repeated sweeps, not on any one walk being exact.
func (v *View) Walk(fn func(e wire.HashEntry) error) error {
	if err := v.refresh(); err != nil {
		return err
	}
	seen := make(map[mem.Addr]bool, len(v.dir))
	buf := make([]byte, SegmentSize)
	for _, w := range v.dir {
		_, seg := unpackDirEntry(w)
		if seen[seg] {
			continue
		}
		seen[seg] = true
		if err := v.c.Read(seg, buf); err != nil {
			return err
		}
		for b := 0; b < SegBuckets; b++ {
			bucket := buf[b*BucketSize:]
			for s := 0; s < EntriesPerBucket; s++ {
				e := wire.DecodeHashEntry(getUint64(bucket[8*(1+s):]))
				if !e.Valid {
					continue
				}
				if err := fn(e); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
