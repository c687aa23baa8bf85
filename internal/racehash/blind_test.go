package racehash

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// Tests of the blind insert (AppendFreshInsert): a fresh entry's CAS posted
// with no read of its bucket pair ahead of it, the pair READ behind it.

// blindInsert posts e's insert as a structural write's commit batch carries
// it: prepared and never fetched, the CAS and the pair READ in one batch,
// concluded by FinishInsert. between runs after planning, before the batch.
func blindInsert(v *View, h uint64, e wire.HashEntry, alloc *mem.Allocator, between func(p *PreparedRead)) (*PreparedRead, error) {
	p := new(PreparedRead)
	if err := v.PrepareInto(p, h); err != nil {
		return nil, err
	}
	ops, ok := p.AppendFreshInsert(nil, e)
	if !ok {
		return p, fmt.Errorf("AppendFreshInsert planned nothing")
	}
	if between != nil {
		between(p)
	}
	if err := v.c.Batch(ops); err != nil {
		return p, err
	}
	return p, v.FinishInsert(p, ops, e, alloc)
}

// occurrences counts the slots of the whole table holding e's word.
func occurrences(t *testing.T, env *testEnv, e wire.HashEntry) int {
	t.Helper()
	n := 0
	err := NewView(env.table, env.f.NewClient()).Walk(func(got wire.HashEntry) error {
		if got == e {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// holdsOnce asserts that a fresh view's lookup finds e and that the table
// holds its word in exactly one slot.
func holdsOnce(t *testing.T, env *testEnv, h uint64, e wire.HashEntry) {
	t.Helper()
	cands, err := NewView(env.table, env.f.NewClient()).LookupAppend(nil, h, e.FP)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		found = found || c.Entry == e
	}
	if n := occurrences(t, env, e); !found || n != 1 {
		t.Fatalf("entry found by lookup %v, held in %d slots; want found, 1", found, n)
	}
}

// warmView returns a view with its directory cached and the stats it starts
// from.
func warmView(t *testing.T, env *testEnv, c *fabric.Client) *View {
	t.Helper()
	v := NewView(env.table, c)
	if err := v.Refresh(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBlindInsertCleanWin: uncontended, a blind insert is ONE batch of three
// verbs — the CAS and the pair READ — and the header re-check it carries
// compares clean: no wait, no stale check, no loss.
func TestBlindInsertCleanWin(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(1)
	e := env.makeEntry(t, c, alloc, h, fp)
	before := c.Stats()
	p, err := blindInsert(v, h, e, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(before); d.RoundTrips != 1 || d.Verbs != 3 {
		t.Errorf("blind insert took %d round trips, %d verbs; want 1, 3", d.RoundTrips, d.Verbs)
	}
	if st := v.Stats(); st.BlindInserts != 1 || st.BlindLost != 0 || st.StaleChecks != 0 || st.SplitWaits != 0 || st.PlannedSwaps != 0 || p.Lost || p.Retried {
		t.Errorf("stats %+v, lost %v, retried %v; want one clean blind insert", st, p.Lost, p.Retried)
	}
	holdsOnce(t, env, h, e)
}

// TestBlindInsertGuessedSlotTaken: a rival fills the guessed slot between the
// plan and the batch. The CAS loses, and the pair READ that rode behind it
// plans the retry: exactly one entry, one round trip more — the CAS and its
// header re-read, no read of the table.
func TestBlindInsertGuessedSlotTaken(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(1)
	e, rival := env.makeEntry(t, c, alloc, h, fp), env.makeEntry(t, c, alloc, h, fp^1)
	rc := env.f.NewClient()
	before := c.Stats()
	p, err := blindInsert(v, h, e, alloc, func(p *PreparedRead) {
		if old, err := rc.CompareSwap(p.at.slot, 0, rival.Encode()); err != nil || old != 0 {
			t.Fatalf("rival CAS: %#x, %v", old, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(before); d.RoundTrips != 2 || d.Verbs != 5 {
		t.Errorf("blind insert behind a taken slot took %d round trips, %d verbs; want 2, 5", d.RoundTrips, d.Verbs)
	}
	if st := v.Stats(); st.BlindLost != 1 || st.RetryReads != 0 || !p.Retried || p.Lost {
		t.Errorf("BlindLost %d, RetryReads %d, retried %v, lost %v; want 1, 0, true, false", st.BlindLost, st.RetryReads, p.Retried, p.Lost)
	}
	holdsOnce(t, env, h, e)
	holdsOnce(t, env, h, rival)
}

// fillPair takes every slot of h's bucket pair with entries of other hashes
// that share it, so a split can tell them apart.
func fillPair(t *testing.T, env *testEnv, v *View, alloc *mem.Allocator, h uint64) {
	t.Helper()
	b1, b2 := bucketPair(h)
	for i, n := 2, 0; n < 2*EntriesPerBucket; i++ {
		if oh, ofp := hashFP(i); oh != h {
			if c1, c2 := bucketPair(oh); c1 == b1 && c2 == b2 {
				if err := v.Insert(oh, env.makeEntry(t, v.c, alloc, oh, ofp), alloc); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	if p, err := v.read(h); err != nil {
		t.Fatal(err)
	} else if _, free := p.find(0); free {
		t.Fatal("the pair has room")
	}
}

// TestBlindInsertPairFull: every slot of the pair is taken, so the guessed one
// is too, and the pair read shows no room: the table's own loop splits the
// segment and lands the entry.
func TestBlindInsertPairFull(t *testing.T) {
	env := newEnv(t, 1)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(1)
	fillPair(t, env, v, alloc, h)
	e := env.makeEntry(t, c, alloc, h, fp)
	p, err := blindInsert(v, h, e, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Splits == 0 || st.BlindLost != 1 || p.Retried || !p.Lost {
		t.Errorf("splits %d, BlindLost %d, retried %v, lost %v; want a split through the table loop", st.Splits, st.BlindLost, p.Retried, p.Lost)
	}
	holdsOnce(t, env, h, e)
}

// TestBlindInsertStaleDirectory: another client splits the segment after this
// view cached the directory, moving the hash's home to the new segment. The
// blind CAS lands in the old one, where no lookup of the hash looks; the
// headers read behind it are not the ones the cache predicts, so the insert
// settles — refreshes, does not find its word at home, clears the orphan — and
// inserts again. Without the re-check the entry would be lost to lookups.
func TestBlindInsertStaleDirectory(t *testing.T) {
	env := newEnv(t, 1) // one segment, local depth 0
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	other := env.f.NewClient()
	ov, oalloc := NewView(env.table, other), mem.NewAllocator(other, 0)
	for i := 1000; ov.Stats().Splits == 0; i++ {
		h, fp := hashFP(i)
		if err := ov.Insert(h, env.makeEntry(t, other, oalloc, h, fp), oalloc); err != nil {
			t.Fatal(err)
		}
	}
	var h uint64
	var fp uint16
	for i := 0; ; i++ { // a hash the split moved: bit 0 set
		if h, fp = hashFP(i); h&1 == 1 {
			break
		}
	}
	e := env.makeEntry(t, c, alloc, h, fp)
	p, err := blindInsert(v, h, e, alloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.StaleChecks != 1 || st.BlindLost != 1 || !p.Lost {
		t.Errorf("stale checks %d, BlindLost %d, lost %v; want the won CAS settled and redone", st.StaleChecks, st.BlindLost, p.Lost)
	}
	holdsOnce(t, env, h, e)
}

// TestSplitDropsOrphans: an entry whose hash its segment does not cover — the
// residue of a CAS that landed on a stale directory — is reached by no lookup;
// a split of that segment drops it rather than carrying it into one of the
// two halves, where it would outlive the copy its writer inserts at home.
func TestSplitDropsOrphans(t *testing.T) {
	env := newEnv(t, 1)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	i := 0
	insert := func(bit uint64) { // one more entry whose hash has bit 0 == bit
		for ; ; i++ {
			if h, fp := hashFP(i); h&1 == bit {
				if err := v.Insert(h, env.makeEntry(t, c, alloc, h, fp), alloc); err != nil {
					t.Fatal(err)
				}
				i++
				return
			}
		}
	}
	for v.Stats().Splits == 0 {
		insert(uint64(i & 1)) // either half
	}
	// An orphan in the segment of suffix 0: a hash with bit 0 set.
	var h uint64
	var fp uint16
	for h&1 == 0 {
		h, fp = hashFP(i)
		i++
	}
	orphan := env.makeEntry(t, c, alloc, h, fp)
	seg := mem.Addr(0)
	for _, w := range v.dir {
		if d, s := unpackDirEntry(w); d == 1 && seg.IsNull() {
			if hdr := env.f.Region(env.node).ReadUint64(s.Offset()); hdr&hdrSuffixCap == 0 {
				seg = s
			}
		}
	}
	region := env.f.Region(env.node)
	slot := seg.Add(uint64(SegBuckets-1)*BucketSize + 8*EntriesPerBucket) // the segment's last slot
	if region.ReadUint64(slot.Offset()) != 0 {
		t.Fatal("the last slot of the segment is taken")
	}
	region.WriteUint64(slot.Offset(), orphan.Encode())
	for splits := v.Stats().Splits; v.Stats().Splits == splits; {
		insert(0) // into the orphan's segment, until it splits
	}
	if n := occurrences(t, env, orphan); n != 0 {
		t.Fatalf("the orphan survived the split of its segment in %d slots", n)
	}
}

// TestBlindInsertSplitInFlight: the pair read behind the CAS shows the split
// lock — a split may have snapshotted the bucket before the word landed — and
// the split then rewrites the bucket without it. The insert waits for the lock
// to clear, verifies, finds its word gone and inserts again.
func TestBlindInsertSplitInFlight(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(1)
	e := env.makeEntry(t, c, alloc, h, fp)
	region := env.f.Region(env.node)
	var at slotRef
	p := new(PreparedRead)
	if err := v.PrepareInto(p, h); err != nil {
		t.Fatal(err)
	}
	ops, _ := p.AppendFreshInsert(nil, e)
	at = p.at
	hdr := region.ReadUint64(at.bucket.Offset())
	region.WriteUint64(at.bucket.Offset(), hdr|hdrSplitLock)
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	// The split's rewrite: the bucket without the word, the lock cleared.
	region.WriteUint64(at.slot.Offset(), 0)
	region.WriteUint64(at.bucket.Offset(), hdr)
	if err := v.FinishInsert(p, ops, e, alloc); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.StaleChecks != 1 || st.SplitWaits != 1 || st.BlindLost != 1 || !p.Lost {
		t.Errorf("stale checks %d, split waits %d, BlindLost %d, lost %v; want one wait, one verify, the insert redone", st.StaleChecks, st.SplitWaits, st.BlindLost, p.Lost)
	}
	holdsOnce(t, env, h, e)
}

// TestBlindInsertCompletionLost: with the batch's outcomes unknown (nil), the
// insert takes the table's idempotent loop — which finds the word when the
// batch did execute, and inserts it when it did not.
func TestBlindInsertCompletionLost(t *testing.T) {
	for _, executed := range []bool{true, false} {
		env := newEnv(t, 100)
		c := env.f.NewClient()
		alloc := mem.NewAllocator(c, 0)
		v := warmView(t, env, c)
		h, fp := hashFP(1)
		e := env.makeEntry(t, c, alloc, h, fp)
		p := new(PreparedRead)
		if err := v.PrepareInto(p, h); err != nil {
			t.Fatal(err)
		}
		ops, _ := p.AppendFreshInsert(nil, e)
		if executed {
			if err := c.Batch(ops); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.FinishInsert(p, nil, e, alloc); err != nil {
			t.Fatal(err)
		}
		if st := v.Stats(); st.BlindLost != 1 || !p.Lost {
			t.Errorf("executed %v: BlindLost %d, lost %v; want the table loop", executed, st.BlindLost, p.Lost)
		}
		holdsOnce(t, env, h, e)
	}
}

// TestSettleOutwaitsSlowSplit: a split whose driver the host keeps off the CPU
// for a quarter of a second of wall time holds its lock that long, and an
// insert that must settle behind it waits the split out as a wait on any live
// holder does (fabric.Backoff.WaitHolder) instead of giving up on a poll count.
// A goroutine yielding in a loop stands for a busy box's other clients: with
// a processor cycling through its scheduler, a short host park lasts what it
// asks for, and a poll count is soon spent.
func TestSettleOutwaitsSlowSplit(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(1)
	e := env.makeEntry(t, c, alloc, h, fp)
	region := env.f.Region(env.node)
	var released atomic.Bool
	done := make(chan struct{})
	_, err := blindInsert(v, h, e, alloc, func(p *PreparedRead) {
		hdr := region.ReadUint64(p.at.bucket.Offset())
		region.WriteUint64(p.at.bucket.Offset(), hdr|hdrSplitLock)
		go func() {
			defer close(done)
			for !released.Load() {
				runtime.Gosched()
			}
		}()
		time.AfterFunc(250*time.Millisecond, func() {
			region.WriteUint64(p.at.bucket.Offset(), hdr)
			released.Store(true)
		})
	})
	<-done
	if err != nil {
		t.Fatalf("insert behind a split held 250 ms: %v", err)
	}
	if st := v.Stats(); st.StaleChecks != 1 || st.SplitWaits != 1 {
		t.Errorf("stale checks %d, split waits %d; want the insert settled behind one wait", st.StaleChecks, st.SplitWaits)
	}
	holdsOnce(t, env, h, e)
}

// TestSplitOutwaitsHeldTableLock: a split that finds the table-wide split
// lock held by another client splitting a segment — whom the host keeps off
// the CPU for a quarter of a second of wall time — waits the holder out as a
// wait on any live holder does (fabric.Backoff.WaitHolder) instead of giving
// up on a poll count, takes the lock once it is free and gives it back. A
// goroutine yielding in a loop stands for a busy box's other clients, as in
// TestSettleOutwaitsSlowSplit.
func TestSplitOutwaitsHeldTableLock(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, _ := hashFP(1)
	region, lock := env.f.Region(env.node), env.table.Meta.Add(metaLockOff).Offset()
	region.WriteUint64(lock, 1)
	var released atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !released.Load() {
			runtime.Gosched()
		}
	}()
	time.AfterFunc(250*time.Millisecond, func() {
		region.WriteUint64(lock, 0)
		released.Store(true)
	})
	err := v.split(h, alloc)
	<-done
	if err != nil {
		t.Fatalf("split behind a table lock held 250 ms: %v", err)
	}
	if got := region.ReadUint64(lock); got != 0 {
		t.Fatalf("table split lock %d after the split; want it given back", got)
	}
}
