package racehash

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// testEnv bundles a one-node fabric with a bootstrapped table. Because
// segment splits recover entry placement from inner-node headers, every
// test entry must point at a fake node header carrying its placement hash.
type testEnv struct {
	f     *fabric.Fabric
	node  mem.NodeID
	table Table
}

func newEnv(t *testing.T, expected int) *testEnv {
	t.Helper()
	f := fabric.New(fabric.InstantConfig())
	node := f.AddNode(64 << 20)
	alloc := mem.NewAllocator(f.Regions(), 0)
	table, err := Bootstrap(f.Region(node), alloc, node, expected)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{f: f, node: node, table: table}
}

// makeEntry fabricates an inner node whose header carries placement hash h
// and returns a hash entry pointing at it.
func (e *testEnv) makeEntry(t *testing.T, c *fabric.Client, alloc *mem.Allocator, h uint64, fp uint16) wire.HashEntry {
	t.Helper()
	addr, err := alloc.Alloc(e.node, mem.ClassInner, 64)
	if err != nil {
		t.Fatal(err)
	}
	hdr := wire.NodeHeader{Status: wire.StatusIdle, Type: wire.Node4, Depth: 1, PrefixHash: h}
	if err := c.WriteUint64(addr, hdr.Encode()); err != nil {
		t.Fatal(err)
	}
	return wire.HashEntry{Valid: true, FP: fp, Type: wire.Node4, Addr: addr}
}

func hashFP(i int) (uint64, uint16) {
	h := wire.Hash64([]byte(fmt.Sprintf("prefix-%d", i))) & (1<<42 - 1)
	fp := wire.FP12([]byte(fmt.Sprintf("prefix-%d", i)))
	return h, fp
}

func TestInsertLookup(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)

	h, fp := hashFP(1)
	e := env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, e, alloc); err != nil {
		t.Fatal(err)
	}
	got, err := v.LookupAppend(nil, h, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entry != e {
		t.Fatalf("lookup = %+v, want %+v", got, e)
	}
}

func TestLookupMiss(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	v := NewView(env.table, c)
	h, fp := hashFP(999)
	got, err := v.LookupAppend(nil, h, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("lookup of absent key returned %+v", got)
	}
}

func TestWarmLookupIsOneRoundTrip(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	h, fp := hashFP(2)
	e := env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, e, alloc); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := v.LookupAppend(nil, h, fp); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(before)
	if d.RoundTrips != 1 {
		t.Errorf("warm lookup took %d round trips, want 1 (the paper's §III-A guarantee)", d.RoundTrips)
	}
	if d.Verbs != 2 {
		t.Errorf("warm lookup issued %d verbs, want 2 bucket reads", d.Verbs)
	}
}

func TestInsertIdempotent(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	h, fp := hashFP(3)
	e := env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, e, alloc); err != nil {
		t.Fatal(err)
	}
	if err := v.Insert(h, e, alloc); err != nil {
		t.Fatal(err)
	}
	got, _ := v.LookupAppend(nil, h, fp)
	if len(got) != 1 {
		t.Fatalf("idempotent insert produced %d entries", len(got))
	}
}

func TestReplace(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	h, fp := hashFP(4)
	old := env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, old, alloc); err != nil {
		t.Fatal(err)
	}
	// Node type switch: same prefix, new address and type.
	newE := env.makeEntry(t, c, alloc, h, fp)
	newE.Type = wire.Node16
	if err := v.Replace(h, old, newE, alloc); err != nil {
		t.Fatal(err)
	}
	got, _ := v.LookupAppend(nil, h, fp)
	if len(got) != 1 || got[0].Entry != newE {
		t.Fatalf("after replace: %+v", got)
	}
	// Replace is idempotent if the new entry is already installed.
	if err := v.Replace(h, old, newE, alloc); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.ReplaceInserts != 0 {
		t.Errorf("a replace of a present entry counted %d inserts", st.ReplaceInserts)
	}
}

// TestReplaceInsertsWhenOldAbsent: Replace is an upsert. With the old entry
// absent — its creator's insert still in flight — the new one is inserted at
// once, in the round trips and virtual time of a plain insert; on a full
// bucket pair the insert splits the segment; and the old entry's late insert
// lands beside the new one, which stays live.
func TestReplaceInsertsWhenOldAbsent(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := warmView(t, env, c)
	h, fp := hashFP(5)
	oh, ofp := hashFP(6)
	plain, old, newE := env.makeEntry(t, c, alloc, oh, ofp), env.makeEntry(t, c, alloc, h, fp), env.makeEntry(t, c, alloc, h, fp)
	cost := func(op func() error) (rts uint64, ps int64) {
		t.Helper()
		before, clock := c.Stats().RoundTrips, c.Clock()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return c.Stats().RoundTrips - before, c.Clock() - clock
	}
	insRTs, insPs := cost(func() error { return v.Insert(oh, plain, alloc) })
	if rts, ps := cost(func() error { return v.Replace(h, old, newE, alloc) }); rts != insRTs || ps != insPs {
		t.Errorf("replace of an absent entry: %d round trips, %d ps; want a plain insert's %d, %d ps", rts, ps, insRTs, insPs)
	}
	if st := v.Stats(); st.ReplaceInserts != 1 || st.SplitWaits != 0 {
		t.Errorf("%d replace inserts, %d split waits; want 1, 0", st.ReplaceInserts, st.SplitWaits)
	}
	holdsOnce(t, env, h, newE)
	if n := occurrences(t, env, old); n != 0 {
		t.Errorf("the old entry is held in %d slots", n)
	}

	// The creator's insert lands late: both words are in the table, the new
	// one still found, and a replace posted again changes nothing.
	if err := NewView(env.table, env.f.NewClient()).Insert(h, old, alloc); err != nil {
		t.Fatal(err)
	}
	if err := v.Replace(h, old, newE, alloc); err != nil || v.Stats().ReplaceInserts != 1 {
		t.Fatalf("replace posted again: %v, %d replace inserts; want nil, 1", err, v.Stats().ReplaceInserts)
	}
	holdsOnce(t, env, h, newE)
	holdsOnce(t, env, h, old)

	// A full pair: the upsert's insert splits the segment.
	env = newEnv(t, 1)
	c = env.f.NewClient()
	alloc = mem.NewAllocator(c, 0)
	v = warmView(t, env, c)
	fillPair(t, env, v, alloc, h)
	ghost, newE := env.makeEntry(t, c, alloc, h, fp), env.makeEntry(t, c, alloc, h, fp)
	if err := v.Replace(h, ghost, newE, alloc); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Splits == 0 || st.BucketOverflows == 0 || st.ReplaceInserts != 1 {
		t.Errorf("%d splits, %d overflows, %d replace inserts; want the insert to split the full pair", st.Splits, st.BucketOverflows, st.ReplaceInserts)
	}
	holdsOnce(t, env, h, newE)
}

func TestRemove(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	h, fp := hashFP(6)
	e := env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, e, alloc); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove(h, e); err != nil {
		t.Fatal(err)
	}
	got, _ := v.LookupAppend(nil, h, fp)
	if len(got) != 0 {
		t.Fatalf("entry survived remove: %+v", got)
	}
	// Removing again is a no-op.
	if err := v.Remove(h, e); err != nil {
		t.Fatal(err)
	}
}

func TestManyInsertsForceSplits(t *testing.T) {
	// Start with a single-segment table and insert far beyond its
	// capacity: segments must split and the directory must double, and
	// every entry must remain findable afterwards.
	env := newEnv(t, 1) // initial depth 0
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)

	const n = 3000
	entries := make([]wire.HashEntry, n)
	for i := 0; i < n; i++ {
		h, fp := hashFP(i)
		entries[i] = env.makeEntry(t, c, alloc, h, fp)
		if err := v.Insert(h, entries[i], alloc); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := v.Stats()
	if st.Splits == 0 {
		t.Error("no segment splits for 3000 entries in a 1-segment table")
	}
	if st.DirDoubles == 0 {
		t.Error("directory never doubled")
	}
	for i := 0; i < n; i++ {
		h, fp := hashFP(i)
		got, err := v.LookupAppend(nil, h, fp)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		found := false
		for _, cand := range got {
			if cand.Entry == entries[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("entry %d lost after splits", i)
		}
	}
}

func TestFreshViewSeesExistingEntries(t *testing.T) {
	env := newEnv(t, 1)
	c1 := env.f.NewClient()
	alloc := mem.NewAllocator(c1, 0)
	v1 := NewView(env.table, c1)
	var hs []uint64
	var fps []uint16
	var es []wire.HashEntry
	for i := 0; i < 800; i++ {
		h, fp := hashFP(i)
		e := env.makeEntry(t, c1, alloc, h, fp)
		if err := v1.Insert(h, e, alloc); err != nil {
			t.Fatal(err)
		}
		hs, fps, es = append(hs, h), append(fps, fp), append(es, e)
	}
	// A second client with a cold directory cache must find everything.
	c2 := env.f.NewClient()
	v2 := NewView(env.table, c2)
	for i := range hs {
		got, err := v2.LookupAppend(nil, hs[i], fps[i])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, cand := range got {
			if cand.Entry == es[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("fresh view missed entry %d", i)
		}
	}
}

func TestStaleDirectoryCacheRecovers(t *testing.T) {
	env := newEnv(t, 1)
	c1 := env.f.NewClient()
	alloc1 := mem.NewAllocator(c1, 0)
	v1 := NewView(env.table, c1)
	// Warm v2's cache while the table is tiny.
	c2 := env.f.NewClient()
	v2 := NewView(env.table, c2)
	h0, fp0 := hashFP(0)
	e0 := env.makeEntry(t, c1, alloc1, h0, fp0)
	if err := v1.Insert(h0, e0, alloc1); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.LookupAppend(nil, h0, fp0); err != nil {
		t.Fatal(err)
	}
	// Grow the table through v1 only.
	for i := 1; i < 2000; i++ {
		h, fp := hashFP(i)
		e := env.makeEntry(t, c1, alloc1, h, fp)
		if err := v1.Insert(h, e, alloc1); err != nil {
			t.Fatal(err)
		}
	}
	// v2's stale cache must transparently refresh on every lookup.
	for i := 0; i < 2000; i += 37 {
		h, fp := hashFP(i)
		got, err := v2.LookupAppend(nil, h, fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("stale view lost entry %d", i)
		}
	}
	if v2.Stats().Refreshes == 0 {
		t.Error("stale view never refreshed its directory cache")
	}
}

func TestConcurrentInsertsAndLookups(t *testing.T) {
	env := newEnv(t, 1)
	const workers = 6
	const perWorker = 400
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := env.f.NewClient()
			alloc := mem.NewAllocator(c, 0)
			v := NewView(env.table, c)
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				h, fp := hashFP(id)
				e := env.makeEntry(t, c, alloc, h, fp)
				if err := v.Insert(h, e, alloc); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				if got, err := v.LookupAppend(nil, h, fp); err != nil || len(got) == 0 {
					errs <- fmt.Errorf("worker %d lost own entry %d (err=%v)", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Global check from a fresh client.
	c := env.f.NewClient()
	v := NewView(env.table, c)
	for id := 0; id < workers*perWorker; id++ {
		h, fp := hashFP(id)
		got, err := v.LookupAppend(nil, h, fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("entry %d missing after concurrent load", id)
		}
	}
}

func TestDirCacheBytesReported(t *testing.T) {
	env := newEnv(t, 10000)
	c := env.f.NewClient()
	v := NewView(env.table, c)
	if _, err := v.LookupAppend(nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if v.DirCacheBytes() == 0 {
		t.Error("directory cache size not reported")
	}
}

func TestInsertLookupProperty(t *testing.T) {
	env := newEnv(t, 64)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	inserted := map[uint64]wire.HashEntry{}
	i := 0
	prop := func(seed uint64) bool {
		i++
		h := wire.Mix64(seed) & (1<<42 - 1)
		fp := uint16(wire.Mix64(seed^1) & (1<<wire.FPBits - 1))
		e := env.makeEntry(t, c, alloc, h, fp)
		if err := v.Insert(h, e, alloc); err != nil {
			t.Logf("insert: %v", err)
			return false
		}
		inserted[h] = e
		// Every inserted entry remains findable.
		for hh, ee := range inserted {
			cands, err := v.LookupAppend(nil, hh, ee.FP)
			if err != nil {
				return false
			}
			found := false
			for _, cand := range cands {
				if cand.Entry == ee {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCleanInsertNeedsNoSplitCheck: an insert no split overlaps is two round
// trips — bucket read, then CAS with the bucket-header re-read — and the
// re-read must compare clean wherever the table's segments sit in memory. A
// small table's directory is shorter than a bucket, so its segments are not
// bucket-aligned; the header must be re-read at the bucket's own address,
// not at the slot address rounded down.
func TestCleanInsertNeedsNoSplitCheck(t *testing.T) {
	for _, expected := range []int{10, 100, 100000} {
		env := newEnv(t, expected)
		c := env.f.NewClient()
		alloc := mem.NewAllocator(c, 0)
		v := NewView(env.table, c)
		if err := v.Refresh(); err != nil {
			t.Fatal(err)
		}
		h, fp := hashFP(1)
		e := env.makeEntry(t, c, alloc, h, fp)
		before := c.Stats().RoundTrips
		if err := v.Insert(h, e, alloc); err != nil {
			t.Fatal(err)
		}
		if rts := c.Stats().RoundTrips - before; rts != 2 {
			t.Errorf("expected=%d: clean insert took %d round trips, want 2", expected, rts)
		}
		if st := v.Stats(); st.StaleChecks != 0 || st.SplitWaits != 0 {
			t.Errorf("expected=%d: clean insert ran %d stale checks, %d split waits", expected, st.StaleChecks, st.SplitWaits)
		}
	}
}

// TestPlannedSwapAndRemove pins the no-wait planned mutations the record
// store's fan-out posts (AppendReplace + FinishSwapIfPresent, AppendRemove +
// FinishRemove): planned from a bucket pair fetched earlier, each is ONE
// batch of CAS + header re-read when nothing interfered; a swap whose old
// entry a rival replaced in between is reported lost — never waited for — at
// the cost of one re-read; a remove of an entry already gone succeeds; and
// both are safe to post a second time after they landed.
func TestPlannedSwapAndRemove(t *testing.T) {
	env := newEnv(t, 100)
	c := env.f.NewClient()
	alloc := mem.NewAllocator(c, 0)
	v := NewView(env.table, c)
	h, fp := hashFP(1)
	old, next, rival := env.makeEntry(t, c, alloc, h, fp), env.makeEntry(t, c, alloc, h, fp), env.makeEntry(t, c, alloc, h, fp)
	if err := v.Insert(h, old, alloc); err != nil {
		t.Fatal(err)
	}
	fetch := func() *PreparedRead {
		t.Helper()
		p := new(PreparedRead)
		err := v.PrepareInto(p, h)
		if err == nil {
			err = c.Batch(p.AppendOps(nil))
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	holds := func(want ...wire.HashEntry) {
		t.Helper()
		cands, err := v.LookupAppend(nil, h, fp)
		if err != nil || len(cands) != len(want) {
			t.Fatalf("table holds %d entries (err %v), want %d", len(cands), err, len(want))
		}
		for i, e := range want {
			if cands[i].Entry != e {
				t.Fatalf("entry %d = %+v, want %+v", i, cands[i].Entry, e)
			}
		}
	}
	rts := func() uint64 { return c.Stats().RoundTrips }

	// A clean planned swap: one batch, won. Posted again, it finds its entry.
	p := fetch()
	ops, ok := p.AppendReplace(nil, old, next)
	if !ok || len(ops) != 2 {
		t.Fatalf("AppendReplace planned %d verbs, ok %v; want the CAS and the header re-read", len(ops), ok)
	}
	before := rts()
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if won, err := v.FinishSwapIfPresent(p, ops, old, next); err != nil || !won || rts()-before != 1 {
		t.Fatalf("clean planned swap = %v, %v in %d round trips; want won in 1", won, err, rts()-before)
	}
	ops, _ = p.AppendReplace(ops[:0], old, next)
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if won, err := v.FinishSwapIfPresent(p, ops, old, next); err != nil || !won {
		t.Fatalf("planned swap posted a second time = %v, %v; want it to find its entry", won, err)
	}
	holds(next)

	// A rival replaces the entry between the fetch and the CAS: lost, not waited for.
	p = fetch()
	if won, _, err := v.swap(h, next.Encode(), rival.Encode(), nil); err != nil || !won {
		t.Fatalf("rival's swap = %v, %v", won, err)
	}
	ops, _ = p.AppendReplace(ops[:0], next, old)
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if won, err := v.FinishSwapIfPresent(p, ops, next, old); err != nil || won {
		t.Fatalf("planned swap over a replaced entry = %v, %v; want lost", won, err)
	}
	holds(rival)

	// A planned remove: one batch. Posted again, and of an entry that is not
	// there at all, it succeeds and changes nothing.
	p = fetch()
	ops, ok = p.AppendRemove(ops[:0], rival)
	if !ok || len(ops) != 2 {
		t.Fatalf("AppendRemove planned %d verbs, ok %v", len(ops), ok)
	}
	before = rts()
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if err := v.FinishRemove(p, ops, rival); err != nil || rts()-before != 1 {
		t.Fatalf("clean planned remove: %v in %d round trips; want 1", err, rts()-before)
	}
	holds()
	ops, ok = p.AppendRemove(ops[:0], rival)
	if err := c.Batch(ops); err != nil || !ok {
		t.Fatal(err, ok)
	}
	if err := v.FinishRemove(p, ops, rival); err != nil {
		t.Fatalf("planned remove posted a second time: %v", err)
	}
	if ops, ok = fetch().AppendRemove(ops[:0], old); ok || len(ops) != 0 {
		t.Errorf("AppendRemove of an absent entry planned %d verbs", len(ops))
	}
	if err := v.FinishRemove(p, nil, old); err != nil {
		t.Fatalf("remove of an absent entry: %v", err)
	}
	holds()
}
