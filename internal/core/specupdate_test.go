package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// The speculative-update suite pins the in-place write through the
// leaf-address cache (DESIGN.md §5.11): a cached address buys a put its
// descent, lock and verification in ONE batch, the ordinary image WRITE
// releases the lock, and a cache entry that is stale, foreign or pointing at
// a busy leaf costs a fallback to the tree path — never a write to the wrong
// leaf, never a leaf left locked.

// val64 is a 64-byte value whose bytes name the version it carries.
func val64(version byte) []byte { return bytes.Repeat([]byte{version}, 64) }

// warmPut inserts key and teaches the client's cache its leaf.
func warmPut(t *testing.T, c *Client, key, value []byte) {
	t.Helper()
	if _, err := c.Insert(key, value); err != nil {
		t.Fatal(err)
	}
	warmSearch(t, c, key, value)
}

// leafImage reads key's whole leaf straight out of the memory node.
func leafImage(t *testing.T, f *fabric.Fabric, c *Client, key []byte) (mem.Addr, []byte) {
	t.Helper()
	addr := leafAddrOf(t, c, key)
	var hdr [8]byte
	f.Region(addr.Node()).Read(addr.Offset(), hdr[:])
	units := wire.DecodeLeafHeader(binary.LittleEndian.Uint64(hdr[:])).Units
	img := make([]byte, int(units)*wire.LeafUnit)
	f.Region(addr.Node()).Read(addr.Offset(), img)
	return addr, img
}

// TestSpecUpdateBudget pins the cost of a warm in-place update: 2 round
// trips and 3 verbs (CAS + READ, then WRITE) when the value keeps its
// length, 3 round trips and 4 verbs when a fitting value changes it (the
// first CAS guessed the stored length wrong), every batch charged to the
// leaf-write stage; and that the tree path — 3 round trips from a landing
// whose address the client remembers (it built the node), 4 through the
// table: the leaf's READ carries its lock CAS — teaches the cache, so only
// the first update of a key pays it.
func TestSpecUpdateBudget(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	key := []byte("budget-key")
	for _, k := range []string{"budget-key", "budget-kin"} {
		if _, err := c.Insert([]byte(k), val64(1)); err != nil {
			t.Fatal(err)
		}
	}
	st0 := c.Stats()
	cost := func(value []byte) (rts, verbs int, stages []string) {
		t.Helper()
		var log batchLog
		c.eng.C.SetObserver(&log)
		if ok, err := c.Update(key, value); err != nil || !ok {
			t.Fatalf("update = %v, %v", ok, err)
		}
		c.eng.C.SetObserver(nil)
		for _, ev := range log.evs {
			rts += int(ev.RoundTrips)
			verbs += ev.Verbs
			stages = append(stages, ev.Stage.String())
		}
		return rts, verbs, stages
	}
	steps := []struct {
		what       string
		value      []byte
		rts, verbs int
		stages     string
		hits       uint64
	}{
		{"cold cache, tree path", val64(2), 3, 4, "[node-read leaf-write leaf-write]", 0},
		{"warm, same length", val64(3), 2, 3, "[leaf-write leaf-write]", 1},
		{"warm, shorter value", bytes.Repeat([]byte{4}, 30), 3, 4, "[leaf-write leaf-write leaf-write]", 2},
		{"warm, same length again", bytes.Repeat([]byte{5}, 30), 2, 3, "[leaf-write leaf-write]", 3},
	}
	for _, s := range steps {
		rts, verbs, stages := cost(s.value)
		if rts != s.rts || verbs != s.verbs || fmt.Sprint(stages) != s.stages {
			t.Errorf("%s: %d RT, %d verbs, batches %v; want %d RT, %d verbs, %s", s.what, rts, verbs, stages, s.rts, s.verbs, s.stages)
		}
		if got := c.Stats().SpecUpdHits; got != s.hits {
			t.Errorf("%s: SpecUpdHits = %d, want %d", s.what, got, s.hits)
		}
		warmSearch(t, c, key, s.value)
	}
	st := c.Stats()
	if st.SpecUpdMisses != st0.SpecUpdMisses+1 || st.SpecUpdRefutes != 0 || st.SpecUpdAborts != 0 || st.Restarts != 0 {
		t.Errorf("clean updates: %+v", st)
	}
	if es := c.eng.Stats(); es.LeafLockBreaks != 0 || es.PublishRetries != 0 ||
		es.FusedLeafLocks != 1 || es.FusedLeafLocksLost != 0 || es.FusedLeafLocksRestored != 0 {
		t.Errorf("clean updates: engine %+v; want the tree path's one fused leaf lock, won", es)
	}
}

// TestSpecUpdateRefutesStaleAddress: a cached address whose leaf was retired
// by another compute node — an out-of-place update, a delete + reinsert, a
// leaf relocation — must refute the speculative write in its one round trip
// (the lock CAS fails on the Invalid header), unlearn the entry, and land the
// value through the tree path.
func TestSpecUpdateRefutesStaleAddress(t *testing.T) {
	key := []byte("moving-key")
	retire := map[string]func(t *testing.T, f *fabric.Fabric, other *Client){
		"out-of-place update": func(t *testing.T, f *fabric.Fabric, other *Client) {
			if ok, err := other.Update(key, bytes.Repeat([]byte("B"), 1000)); err != nil || !ok {
				t.Fatalf("grow update = %v, %v", ok, err)
			}
		},
		"delete and reinsert": func(t *testing.T, f *fabric.Fabric, other *Client) {
			if ok, err := other.Delete(key); err != nil || !ok {
				t.Fatalf("delete = %v, %v", ok, err)
			}
			if _, err := other.Insert(key, val64(7)); err != nil {
				t.Fatal(err)
			}
		},
		"relocation": func(t *testing.T, f *fabric.Fabric, other *Client) {
			parent, err := other.readRoot()
			var leaf *rart.Leaf
			for err == nil && leaf == nil {
				if slot, _, _ := parent.Child(key[parent.Hdr.Depth]); slot.Leaf {
					leaf, err = other.eng.ReadLeaf(slot.Addr, parent.Via(false, key[parent.Hdr.Depth]))
				} else {
					parent, err = other.eng.ReadNode(slot.Addr, slot.ChildType)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			from := leafAddrOf(t, other, key).Node()
			for _, target := range other.members.Current().Ring.Nodes() {
				if target != from {
					if moved, err := other.eng.RelocateLeaf(parent, leaf, target); err != nil || !moved {
						t.Fatalf("relocate = %v, %v", moved, err)
					}
					return
				}
			}
		},
	}
	for name, fn := range retire {
		t.Run(name, func(t *testing.T) {
			f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
			c := newTestClient(f, shared, Options{})
			other := newTestClient(f, shared, Options{})
			if _, err := c.Insert([]byte("moving-kin"), val64(1)); err != nil {
				t.Fatal(err)
			}
			warmPut(t, c, key, val64(1))
			stale, _, _ := c.lac.Lookup(key)
			fn(t, f, other)

			st0 := c.Stats()
			var log batchLog
			c.eng.C.SetObserver(&log)
			if ok, err := c.Update(key, val64(9)); err != nil || !ok {
				t.Fatalf("update through the stale address = %v, %v", ok, err)
			}
			c.eng.C.SetObserver(nil)
			st := c.Stats()
			if st.SpecUpdRefutes != st0.SpecUpdRefutes+1 || st.SpecUpdHits != st0.SpecUpdHits || st.Restarts != st0.Restarts {
				t.Errorf("stale address: refutes %d→%d, hits %d→%d, restarts %d→%d; want one refutation, no backoff",
					st0.SpecUpdRefutes, st.SpecUpdRefutes, st0.SpecUpdHits, st.SpecUpdHits, st0.Restarts, st.Restarts)
			}
			// The tree path starts at the landing the client remembers.
			if log.evs[0].Stage != fabric.StageLeafWrite || log.evs[0].Verbs != 2 || log.evs[1].Stage != fabric.StageNodeRead {
				t.Errorf("batches %+v; want the refuted lock batch, then straight into the tree path", log.evs[:2])
			}
			// The tree path relearned the live leaf; the retired one is untouched.
			if addr, _, ok := c.lac.Lookup(key); !ok || addr == stale {
				t.Errorf("cache after the fallback: %v, %v; want the live leaf, not %v", addr, ok, stale)
			}
			var hdr [8]byte
			f.Region(stale.Node()).Read(stale.Offset(), hdr[:])
			if got := wire.DecodeLeafHeader(binary.LittleEndian.Uint64(hdr[:])).Status; got != wire.StatusInvalid {
				t.Errorf("retired leaf's status = %v, want Invalid", got)
			}
			for _, r := range []*Client{c, other, newTestClient(f, shared, Options{})} {
				warmSearch(t, r, key, val64(9))
			}
			if ok, err := c.Update(key, val64(10)); err != nil || !ok || c.Stats().SpecUpdHits != st.SpecUpdHits+1 {
				t.Errorf("update after the relearn = %v, %v, hits %d; want a speculative hit", ok, err, c.Stats().SpecUpdHits)
			}
		})
	}
}

// TestSpecUpdateRestoresStrangersLeaf forces the one case where the guessed
// lock word WINS on the wrong leaf: the cache tags entries with 13 fingerprint
// bits, so key A's lookup can return key B's leaf, and when both keys and
// both values have equal lengths the CAS matches B's Idle header. The locked
// image's key refutes it; B's header must be restored before anything else
// happens, leaving B's leaf byte-identical and Idle, and A's value must land
// in A's leaf.
func TestSpecUpdateRestoresStrangersLeaf(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keyA, keyB := []byte("twin-key-A"), []byte("twin-key-B")
	warmPut(t, c, keyA, val64(1))
	warmPut(t, c, keyB, val64(2))
	addrB, before := leafImage(t, f, c, keyB)
	_, unitsB, _ := c.lac.Lookup(keyB)
	c.lac.Learn(keyA, addrB, unitsB) // the collision: A's slot names B's leaf

	var log batchLog
	c.eng.C.SetObserver(&log)
	if ok, err := c.Update(keyA, val64(3)); err != nil || !ok {
		t.Fatalf("update = %v, %v", ok, err)
	}
	c.eng.C.SetObserver(nil)
	if len(log.evs) < 2 || log.evs[0].Verbs != 2 || log.evs[1].Verbs != 1 || log.evs[1].Stage != fabric.StageLeafWrite {
		t.Fatalf("batches %+v; want lock CAS + READ, then the one-verb restore", log.evs)
	}
	if _, after := leafImage(t, f, c, keyB); !bytes.Equal(before, after) {
		t.Errorf("stranger's leaf changed:\n before %x\n after  %x", before, after)
	}
	st := c.Stats()
	if st.SpecUpdRefutes != 1 || st.SpecUpdHits != 0 {
		t.Errorf("SpecUpdRefutes = %d, SpecUpdHits = %d; want 1, 0", st.SpecUpdRefutes, st.SpecUpdHits)
	}
	if es := c.eng.Stats(); es.LeafLockBreaks != 0 {
		t.Errorf("%d leaf locks broken; the restore must leave none behind", es.LeafLockBreaks)
	}
	fresh := newTestClient(f, shared, Options{})
	warmSearch(t, fresh, keyA, val64(3))
	warmSearch(t, fresh, keyB, val64(2))
	if addr, _, ok := c.lac.Lookup(keyA); !ok || addr == addrB {
		t.Errorf("A's entry after the refutation = %v, %v; want A's own leaf", addr, ok)
	}
}

// TestSpecUpdateOutgrownLeaf: a value that no longer fits the cached leaf's
// units is known to be out-of-place work before anything is posted: the
// speculation is aborted for free, the tree path moves the leaf, and its
// hook relearns the new address, so the next update is a speculative hit.
func TestSpecUpdateOutgrownLeaf(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	key := []byte("growing-key")
	warmPut(t, c, key, []byte("small"))
	oldAddr, _, _ := c.lac.Lookup(key)
	big := bytes.Repeat([]byte("B"), 1000)

	var log batchLog
	c.eng.C.SetObserver(&log)
	if ok, err := c.Update(key, big); err != nil || !ok {
		t.Fatalf("grow update = %v, %v", ok, err)
	}
	c.eng.C.SetObserver(nil)
	if log.evs[0].Stage == fabric.StageLeafWrite {
		t.Error("the outgrown update posted a lock batch; that speculation must post nothing")
	}
	if st := c.Stats(); st.SpecUpdAborts != 1 || st.SpecUpdRefutes != 0 {
		t.Errorf("SpecUpdAborts = %d, SpecUpdRefutes = %d; want 1, 0", st.SpecUpdAborts, st.SpecUpdRefutes)
	}
	newAddr, units, ok := c.lac.Lookup(key)
	if !ok || newAddr == oldAddr || uint64(units)*wire.LeafUnit != wire.LeafSize(len(key), len(big)) {
		t.Fatalf("cache after the move = %v (%d units), %v; want the replacement leaf", newAddr, units, ok)
	}
	rt0 := c.eng.C.RoundTrips()
	if ok, err := c.Update(key, bytes.Repeat([]byte("C"), 1000)); err != nil || !ok {
		t.Fatalf("second update = %v, %v", ok, err)
	}
	if rt := c.eng.C.RoundTrips() - rt0; rt != 2 || c.Stats().SpecUpdHits != 1 {
		t.Errorf("update after the relearn: %d round trips, %d hits; want 2, 1", rt, c.Stats().SpecUpdHits)
	}
	warmSearch(t, c, key, bytes.Repeat([]byte("C"), 1000))
}

// TestSpecUpdateDegradedBypass: once a memory node is lost the tree is not
// authoritative, and no write may go through a cached tree address — the
// speculative counters freeze, like the read path's
// (TestSpecFailoverRefutesThenDegradedBypass).
func TestSpecUpdateDegradedBypass(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	keys := testKeys(64)
	for _, k := range keys {
		warmPut(t, c, k, val64(1))
	}
	for _, k := range keys {
		if ok, err := c.Update(k, val64(2)); err != nil || !ok {
			t.Fatalf("healthy update %q = %v, %v", k, ok, err)
		}
	}
	if got := c.Stats().SpecUpdHits; got != uint64(len(keys)) {
		t.Fatalf("healthy cluster: %d speculative hits of %d updates", got, len(keys))
	}
	f.KillNode(victimFor(shared, keys))
	// The writer itself discovers the death, possibly through a speculative
	// write against dead memory.
	for _, k := range keys {
		if ok, err := c.Update(k, val64(3)); err != nil || !ok {
			t.Fatalf("update %q after the kill = %v, %v", k, ok, err)
		}
	}
	if !c.degraded() {
		t.Fatal("breaker never learned the death")
	}
	st := c.Stats()
	for _, k := range keys {
		if ok, err := c.Update(k, val64(4)); err != nil || !ok {
			t.Fatalf("degraded update %q = %v, %v", k, ok, err)
		}
	}
	st2 := c.Stats()
	if st2.SpecUpdHits != st.SpecUpdHits || st2.SpecUpdMisses != st.SpecUpdMisses ||
		st2.SpecUpdRefutes != st.SpecUpdRefutes || st2.SpecUpdAborts != st.SpecUpdAborts {
		t.Errorf("degraded updates moved speculative counters: %+v -> %+v", st, st2)
	}
	for _, k := range keys {
		warmSearch(t, c, k, val64(4))
	}
}

// TestReleasingWriteSurvivesFaults: the image WRITE of an in-place update is
// also the release of the leaf lock the update holds. A transient there
// executed nothing, so abandoning it leaves the leaf locked by the writer
// itself: the restarted put waits on its own lock, which nobody breaks while
// its owner lives.
// A timeout executed everything, so re-issuing could overwrite a later
// writer. Driven like a publication — re-issue after a transient, never after
// a timeout — the put acks with no lock broken and no lease waited, on the
// tree path and the speculative one.
func TestReleasingWriteSurvivesFaults(t *testing.T) {
	key := []byte("release-key")
	for _, path := range []string{"tree", "speculative"} {
		for _, fault := range []string{"transient", "timeout"} {
			kind := map[string]error{"transient": fabric.ErrTransient, "timeout": fabric.ErrTimeout}[fault]
			t.Run(path+"/"+fault, func(t *testing.T) {
				// The cut of the batch behind the winning leaf-header lock CAS
				// and its READ — the releasing image WRITE: a transient executes
				// nothing of it, a timeout all of it and loses the completion.
				landed := 0
				fabrictest.Cuts(kind, func(cut *fabrictest.Cut) {
					f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
					opts := withCaches(shared, Options{}, 0)
					if path == "tree" {
						opts.LeafCache = nil
					}
					c := NewClient(shared, f.NewClient(), opts)
					if _, err := c.Insert([]byte("release-kin"), val64(1)); err != nil {
						t.Fatal(err)
					}
					warmPut(t, c, key, val64(1))
					clock0, writes0 := c.eng.C.Clock(), c.eng.C.Stats().ByKind[fabric.Write]
					var ok bool
					var err error
					fabrictest.Run(f, cut, fabrictest.Proc{C: c.eng.C, Fn: func() { ok, err = c.Update(key, val64(2)) }})
					if err != nil || !ok {
						t.Fatalf("%v at verb %d: update = %v, %v", kind, cut.K, ok, err)
					}
					if at := cut.At; at == nil || at.Stage != fabric.StageLeafWrite || at.Op.Kind != fabric.Read || !at.BatchEnd || cut.Batch.Stage != fabric.StageLeafWrite {
						return
					}
					landed++
					fs := c.eng.C.Stats()
					if fs.Transients+fs.Timeouts != 1 {
						t.Fatalf("%d transients, %d timeouts; the fault missed", fs.Transients, fs.Timeouts)
					}
					if writes := fs.ByKind[fabric.Write] - writes0; writes != 1 {
						t.Errorf("the image WRITE executed %d times, want exactly once", writes)
					}
					es := c.eng.Stats()
					if es.LeafLockBreaks != 0 || es.PublishRetries != 1 {
						t.Errorf("LeafLockBreaks = %d, PublishRetries = %d; want 0, 1", es.LeafLockBreaks, es.PublishRetries)
					}
					if c.Stats().Restarts != 0 {
						t.Errorf("the put restarted %d times", c.Stats().Restarts)
					}
					if dt := c.eng.C.Clock() - clock0; dt > 50_000_000 {
						t.Errorf("update took %d ps of virtual time; a leaf-lock wait was taken", dt)
					}
					if path == "speculative" && c.Stats().SpecUpdHits != 1 {
						t.Errorf("SpecUpdHits = %d, want 1", c.Stats().SpecUpdHits)
					}
					warmSearch(t, newTestClient(f, shared, Options{}), key, val64(2))
				})
				if landed != 1 {
					t.Errorf("%d cuts fell on the releasing WRITE; want one", landed)
				}
			})
		}
	}
}

// TestSpecUpdateCrashSweep kills the writer at every verb of a speculative
// update — ahead of the lock CAS, behind it, behind the READ that rides it,
// the second CAS of a length-changing update, the releasing WRITE. This is the
// leaf-lock-break case of the tree path's in-place update
// (docs/failure-model.md §4), reached through a different door: a survivor
// finds at worst one stuck lock over an intact image — where the writer died
// behind a lock CAS it won — breaks it at once, its owner crashed, and reads
// the old value or the new.
func TestSpecUpdateCrashSweep(t *testing.T) {
	key, old := []byte("crash-key"), val64(1)
	for _, next := range [][]byte{val64(2), bytes.Repeat([]byte{2}, 40)} {
		fabrictest.Cuts(fabric.ErrClientCrashed, func(cut *fabrictest.Cut) {
			what := fmt.Sprintf("%d-byte value, crash at verb %d", len(next), cut.K)
			f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
			lac := NewLeafCache(1<<10, 3)
			teacher := newTestClient(f, shared, Options{LeafCache: lac})
			if _, err := teacher.Insert([]byte("crash-kin"), old); err != nil {
				t.Fatal(err)
			}
			warmPut(t, teacher, key, old)

			victim := newTestClient(f, shared, Options{LeafCache: lac})
			var ok bool
			var err error
			steps := fabrictest.Run(f, cut, fabrictest.Proc{C: victim.eng.C, Fn: func() { ok, err = victim.Update(key, next) }})
			acked := err == nil && ok
			if !acked && !errors.Is(err, fabric.ErrClientCrashed) {
				t.Fatalf("%s: victim update = %v, %v", what, ok, err)
			}
			if acked != (cut.At == nil) {
				t.Fatalf("%s: acked = %v, the cut landed at %+v", what, acked, cut.At)
			}
			won := false // the victim died behind a lock CAS it won
			for _, s := range steps {
				won = won || s.Op.Kind == fabric.CAS && s.Op.Old == s.Op.Expect
			}

			survivor := newTestClient(f, shared, Options{LeafCache: lac})
			clock0 := survivor.eng.C.Clock()
			got, found, err := survivor.Search(key)
			if err != nil || !found {
				t.Fatalf("%s: survivor read = %v, %v", what, found, err)
			}
			if want := map[bool][]byte{false: old, true: next}[acked]; !bytes.Equal(got, want) {
				t.Fatalf("%s: survivor read %d×%d, want %d×%d", what, len(got), got[0], len(want), want[0])
			}
			breaks, waited := survivor.eng.Stats().LeafLockBreaks, survivor.eng.C.Clock()-clock0
			lockLeft := !acked && won
			if lockLeft && (breaks != 1 || waited >= takeoverPs) {
				t.Errorf("%s: survivor broke %d locks in %d ps; want the stuck lock broken at once", what, breaks, waited)
			}
			if !lockLeft && breaks != 0 {
				t.Errorf("%s: survivor broke %d locks; none was left", what, breaks)
			}
			if ok, err := survivor.Update(key, val64(9)); err != nil || !ok {
				t.Fatalf("%s: survivor update = %v, %v", what, ok, err)
			}
			warmSearch(t, teacher, key, val64(9))
			fscktest.Done(t, f)
		})
	}
}

// churnValue builds a self-validating value for key at a version: a header
// naming both, padded to size with a byte derived from the version, so a torn
// or foreign image cannot pass for a value.
func churnValue(key string, version, size int) []byte {
	v := []byte(fmt.Sprintf("%s#%d#", key, version))
	for len(v) < size {
		v = append(v, byte('a'+version%26))
	}
	return v
}

// churnVersion validates a value read for key and returns its version.
func churnVersion(key string, v []byte) (int, error) {
	parts := bytes.SplitN(v, []byte("#"), 3)
	if len(parts) != 3 || string(parts[0]) != key {
		return 0, fmt.Errorf("value %.40q is not %q's", v, key)
	}
	version, err := strconv.Atoi(string(parts[1]))
	if err != nil {
		return 0, fmt.Errorf("value %.40q: %v", v, err)
	}
	for _, b := range parts[2] {
		if b != byte('a'+version%26) {
			return 0, fmt.Errorf("value %.60q of version %d is torn", v, version)
		}
	}
	return version, nil
}

// TestChaosSpecUpdateChurn: sessions of one compute node share a small,
// collision-prone leaf-address cache (and plant collisions on purpose) and run
// speculative Gets and speculative Updates beside deletes, reinserts and
// leaf-moving updates, one writer per key, with a quarter of all batches cut
// by transient faults. Over 100 fault
// seeds: a writer reads back exactly what it last acknowledged; any reader
// sees only whole values of the right key, and never an older version after a
// newer one. Run under -race this is the data-race check of the speculative
// write path.
func TestChaosSpecUpdateChurn(t *testing.T) {
	const workers, keysPer, steps = 4, 6, 40
	sizes := []int{48, 48, 48, 90, 700} // mostly same-size, some fitting changes, some moves
	seeds := uint64(100)
	if testing.Short() {
		seeds = 10
	}
	var agg Stats
	// One cluster for all seeds (its regions are the expensive part); every
	// seed gets its own keys, cache, clients and fault streams.
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 4000)
	for seed := uint64(1); seed <= seeds; seed++ {
		lac := NewLeafCache(64, seed)
		keyOf := func(w, i int) string { return fmt.Sprintf("churn-%03d-%d-%02d", seed, w, i) }
		loader := newTestClient(f, shared, Options{LeafCache: lac})
		for w := 0; w < workers; w++ {
			for i := 0; i < keysPer; i++ {
				if _, err := loader.Insert([]byte(keyOf(w, i)), churnValue(keyOf(w, i), 0, sizes[0])); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.SetFaultPlan(&fabric.FaultPlan{Seed: seed, TransientPer64k: 1 << 14})
		clients := make([]*Client, workers)
		for w := range clients {
			clients[w] = newTestClient(f, shared, Options{LeafCache: lac})
		}
		f.SetFaultPlan(nil)

		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := clients[w]
				rng := rand.New(rand.NewSource(int64(seed)*100 + int64(w)))
				// Per own key: the acknowledged version (-1 absent) and the
				// versions that writes which failed without an answer since
				// then may have left instead. Per foreign key: the newest
				// version seen.
				acked := make([]int, keysPer)
				maybe := make([][]int, keysPer)
				seen := map[string]int{}
				version := 0
				for step := 0; step < steps; step++ {
					i := rng.Intn(keysPer)
					k := keyOf(w, i)
					switch op := rng.Intn(10); {
					case op < 4: // update or reinsert
						version++
						if rng.Intn(4) == 0 {
							// A fingerprint collision, forced: the key's cache slot
							// names another writer's leaf of the same shape.
							other := keyOf((w+1+rng.Intn(workers-1))%workers, rng.Intn(keysPer))
							if addr, units, ok := lac.Lookup([]byte(other)); ok {
								lac.Learn([]byte(k), addr, units)
							}
						}
						var err error
						val := churnValue(k, version, sizes[rng.Intn(len(sizes))])
						existed := true
						if acked[i] < 0 && maybe[i] == nil {
							_, err = c.Insert([]byte(k), val)
						} else {
							existed, err = c.Update([]byte(k), val)
						}
						switch {
						case errors.Is(err, ErrRetriesExhausted):
							maybe[i] = append(maybe[i], version)
						case err != nil:
							errCh <- fmt.Errorf("seed %d w%d put %q: %w", seed, w, k, err)
							return
						case existed:
							acked[i], maybe[i] = version, nil
						default: // update-only found the key absent: a failed delete had landed
							acked[i], maybe[i] = -1, nil
						}
					case op < 5: // delete
						_, err := c.Delete([]byte(k))
						switch {
						case errors.Is(err, ErrRetriesExhausted):
							maybe[i] = append(maybe[i], -1)
						case err != nil:
							errCh <- fmt.Errorf("seed %d w%d delete %q: %w", seed, w, k, err)
							return
						default:
							acked[i], maybe[i] = -1, nil
						}
					case op < 8: // read an own key
						got, ok, err := c.Search([]byte(k))
						if errors.Is(err, ErrRetriesExhausted) {
							continue
						}
						if err != nil {
							errCh <- fmt.Errorf("seed %d w%d read %q: %w", seed, w, k, err)
							return
						}
						have := -1
						if ok {
							if have, err = churnVersion(k, got); err != nil {
								errCh <- fmt.Errorf("seed %d w%d: %w", seed, w, err)
								return
							}
						}
						known := have == acked[i]
						for _, v := range maybe[i] {
							known = known || have == v
						}
						if !known {
							errCh <- fmt.Errorf("seed %d w%d: %q reads version %d, acknowledged %d (in doubt: %v)", seed, w, k, have, acked[i], maybe[i])
							return
						}
					default: // read another writer's key
						k = keyOf((w+1+rng.Intn(workers-1))%workers, i)
						got, ok, err := c.Search([]byte(k))
						if errors.Is(err, ErrRetriesExhausted) || (err == nil && !ok) {
							continue
						}
						if err != nil {
							errCh <- fmt.Errorf("seed %d w%d read %q: %w", seed, w, k, err)
							return
						}
						have, err := churnVersion(k, got)
						if err != nil {
							errCh <- fmt.Errorf("seed %d w%d: %w", seed, w, err)
							return
						}
						if have < seen[k] {
							errCh <- fmt.Errorf("seed %d w%d: %q reads version %d after version %d", seed, w, k, have, seen[k])
							return
						}
						seen[k] = have
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		for _, c := range clients {
			agg = agg.Add(c.Stats())
		}
	}
	if agg.SpecUpdHits == 0 || agg.SpecUpdRefutes == 0 || agg.SpecUpdAborts == 0 || agg.SpecHits == 0 {
		t.Errorf("churn missed a speculative outcome: %+v", agg)
	}
}

// TestRetireWaitsForLACUpdate: two clients agree on a key that one updates
// in place through its leaf-address cache while the other retires its leaf.
// The schedule: client B's Delete — or its Update with a value that outgrows
// the leaf — reads the key's leaf, client A's Update through its cache takes
// the leaf's lock, B runs, A's releasing WRITE lands. Were B's retirement a
// plain header WRITE over A's Locked word, A's WRITE would make the retired
// leaf Idle again: both acknowledge, and A's next Search reads "h" through
// its cache while B's reads the tree. B's leaf CAS rides its lock batch and
// loses to A; the picker returns to A there, B's retry retires the leaf A
// released, and both clients read B's outcome.
func TestRetireWaitsForLACUpdate(t *testing.T) {
	key, big := []byte("race-key"), bytes.Repeat([]byte("B"), 700)
	for _, tc := range []struct {
		name  string
		rival func(*Client) error
		want  []byte // nil: absent
	}{
		{"delete", func(c *Client) error { _, err := c.Delete(key); return err }, nil},
		{"growing update", func(c *Client) error { _, err := c.Update(key, big); return err }, big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
			a := newTestClient(f, shared, Options{LeafCache: NewLeafCache(1<<10, 7)})
			b := newTestClient(f, shared, Options{})
			warmPut(t, a, key, []byte("v"))
			leaf := leafAddrOf(t, b, key)
			cas := func(won bool) func(fabrictest.Step) bool {
				return func(s fabrictest.Step) bool {
					return s.Op.Kind == fabric.CAS && s.Op.Addr == leaf && (s.Op.Old == s.Op.Expect) == won
				}
			}
			script := &fabrictest.Script{Turns: []fabrictest.Turn{
				{Proc: 1, Until: func(s fabrictest.Step) bool { return s.Op.Kind == fabric.Read && s.Op.Addr == leaf }},
				{Proc: 0, Until: cas(true)},
				{Proc: 1, Until: cas(false)},
				{Proc: 0},
			}}
			var aerr, berr error
			fabrictest.Run(f, script, fabrictest.Proc{C: a.eng.C, Fn: func() { _, aerr = a.Update(key, []byte("h")) }},
				fabrictest.Proc{C: b.eng.C, Fn: func() { berr = tc.rival(b) }})
			if aerr != nil || berr != nil {
				t.Fatalf("A's update = %v, B's %s = %v; want both acknowledged", aerr, tc.name, berr)
			}
			if a.Stats().SpecUpdHits != 1 {
				t.Fatalf("A's update took %d cache hits; want it through the leaf-address cache", a.Stats().SpecUpdHits)
			}
			for name, c := range map[string]*Client{"A": a, "B": b} {
				if v, ok, err := c.Search(key); err != nil || ok != (tc.want != nil) || !bytes.Equal(v, tc.want) {
					t.Errorf("%s's Search after both acks = %.10q, %v, %v; want %.10q", name, v, ok, err, tc.want)
				}
			}
			for i, turn := range script.Turns[:3] {
				if turn.At == nil {
					t.Errorf("turn %d never ended where the schedule aims it", i)
				}
			}
		})
	}
}

// TestCrashedRetireMeetsLACReader: B's delete, or growing update, crashes
// between its commit's slot WRITE and its Invalid WRITE. The old leaf is off
// the tree and Locked by a dead owner, at an address A's leaf-address cache
// still holds. D's Search read the leaf's node before B ran, so its walk
// reaches the old leaf after B's crash; the slot it came through names the
// leaf no more, and D restarts rather than break the lock. Then A's Search and
// Update, through the cache first, answer as the tree does, and the old leaf
// stays Locked. Broken back to Idle by D, the leaf would have served its old
// value to D and, through the cache, to A.
func TestCrashedRetireMeetsLACReader(t *testing.T) {
	key, big := []byte("race-key"), bytes.Repeat([]byte("B"), 700)
	for _, tc := range []struct {
		name  string
		rival func(*Client) error
		want  []byte // after B's write; nil: absent
	}{
		{"delete", func(c *Client) error { _, err := c.Delete(key); return err }, nil},
		{"growing update", func(c *Client) error { _, err := c.Update(key, big); return err }, big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run runs B's write, its verb at crashing (none when at is
			// negative), behind D's read of the leaf's node when at is not.
			// It returns A, D's answer, the old leaf's address and where among
			// B's verbs the WRITE to that leaf fell.
			run := func(at int) (a *Client, got []byte, leaf mem.Addr, invalid uint64) {
				f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
				fscktest.Accept(f, rart.CrashedLock) // docs/failure-model.md §4: the retirer dies holding its locks
				a = newTestClient(f, shared, Options{LeafCache: NewLeafCache(1<<10, 7)})
				b, d := newTestClient(f, shared, Options{}), newTestClient(f, shared, Options{})
				warmPut(t, a, key, []byte("v"))
				leaf = leafAddrOf(t, b, key)
				k := uint64(0)
				f.Trace = func(c *fabric.Client, op *fabric.Op) {
					if c == b.eng.C {
						if op.Kind == fabric.Write && op.Addr == leaf {
							invalid = k
						}
						k++
					}
				}
				defer func() { f.Trace = nil }()
				if at < 0 {
					if err := tc.rival(b); err != nil {
						t.Fatal(err)
					}
					return a, nil, leaf, invalid
				}
				parent, err := b.readRoot()
				for slot, _, _ := parent.Child(key[parent.Hdr.Depth]); err == nil && !slot.Leaf; slot, _, _ = parent.Child(key[parent.Hdr.Depth]) {
					parent, err = b.eng.ReadNode(slot.Addr, slot.ChildType)
				}
				if err != nil {
					t.Fatal(err)
				}
				b.eng.C.FailAt(uint64(at), fabric.ErrClientCrashed)
				script := &fabrictest.Script{Turns: []fabrictest.Turn{
					{Proc: 0, Until: func(s fabrictest.Step) bool { return s.Op.Kind == fabric.Read && s.Op.Addr == parent.Addr }},
					{Proc: 1},
				}}
				var berr, derr error
				fabrictest.Run(f, script, fabrictest.Proc{C: d.eng.C, Fn: func() { got, _, derr = d.Search(key) }},
					fabrictest.Proc{C: b.eng.C, Fn: func() { berr = tc.rival(b) }})
				if !errors.Is(berr, fabric.ErrClientCrashed) || derr != nil || script.Turns[0].At == nil {
					t.Fatalf("B's %s = %v, D's Search = %v, D parked at %+v; want B's crash behind D's read of %v", tc.name, berr, derr, script.Turns[0].At, parent.Addr)
				}
				return a, got, leaf, invalid
			}
			_, _, _, at := run(-1)
			a, got, leaf, _ := run(int(at))
			if !bytes.Equal(got, tc.want) {
				t.Errorf("D's Search = %.10q; want %.10q", got, tc.want)
			}
			locked := func(what string) {
				w, err := a.eng.C.ReadUint64(leaf)
				if err != nil || wire.DecodeLeafHeader(w).Status != wire.StatusLocked {
					t.Errorf("%s: the old leaf's header is %v, %v; want B's lock", what, wire.DecodeLeafHeader(w).Status, err)
				}
			}
			locked("after D's Search")
			if v, ok, err := a.Search(key); err != nil || ok != (tc.want != nil) || !bytes.Equal(v, tc.want) {
				t.Errorf("A's Search = %.10q, %v, %v; want %.10q", v, ok, err, tc.want)
			}
			if ok, err := a.Update(key, []byte("h")); err != nil || ok != (tc.want != nil) {
				t.Errorf("A's Update = %v, %v; want %v", ok, err, tc.want != nil)
			}
			want := []byte("h")
			if tc.want == nil {
				want = nil
			}
			if v, ok, err := a.Search(key); err != nil || ok != (want != nil) || !bytes.Equal(v, want) {
				t.Errorf("A's Search after its Update = %q, %v, %v; want %q", v, ok, err, want)
			}
			locked("after A's operations")
		})
	}
}

// TestReadersBetweenReleasingWriteLines: an in-place update's releasing WRITE
// lands the leaf's image a 64-byte line at a time. Parked after its first
// line, the header reads Idle over the old image's tail (DESIGN.md §5.2,
// §5.11). A speculative Get there aborts — the image is torn, which refutes
// nothing — and keeps its leaf-address-cache entry; the tree path behind it
// reads the leaf with ReadLeaf, which waits (a wait park: the script ends the
// reader's turn there and the writer's WRITE lands) and returns the whole new
// value.
func TestReadersBetweenReleasingWriteLines(t *testing.T) {
	key := []byte("torn-key")
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 1000)
	lac := NewLeafCache(1<<10, 7)
	writer := newTestClient(f, shared, Options{LeafCache: lac})
	warmPut(t, writer, key, val64(1))
	reader := newTestClient(f, shared, Options{LeafCache: lac})
	addr, units, _ := lac.Lookup(key)
	var got []byte
	var found bool
	var werr, rerr error
	script := &fabrictest.Script{Turns: []fabrictest.Turn{
		{Proc: 0, Until: func(s fabrictest.Step) bool { return s.Line == 1 && s.Op.Addr == addr }},
		{Proc: 1, Until: func(s fabrictest.Step) bool { return s.Wait }},
	}}
	fabrictest.Run(f, script, fabrictest.Proc{C: writer.eng.C, Lines: true, Fn: func() {
		if ok, err := writer.Update(key, val64(2)); err != nil || !ok {
			werr = fmt.Errorf("update = %v, %v", ok, err)
		}
	}}, fabrictest.Proc{C: reader.eng.C, Fn: func() { got, found, rerr = reader.Search(key) }})
	if werr != nil || script.Turns[0].At == nil || script.Turns[1].At == nil {
		t.Fatalf("writer: %v; parked mid-WRITE at %+v, the reader waited at %+v", werr, script.Turns[0].At, script.Turns[1].At)
	}
	if rerr != nil || !found || !bytes.Equal(got, val64(2)) {
		t.Errorf("the reader read %d×%v, %v, %v; want the whole new value", len(got), got[:min(len(got), 1)], found, rerr)
	}
	if st := reader.Stats(); st.SpecAborts != 1 || st.SpecRefutes != 0 || st.SpecHits != 0 {
		t.Errorf("speculative Get: %d aborts, %d refutes, %d hits; want the torn image aborted once", st.SpecAborts, st.SpecRefutes, st.SpecHits)
	}
	if a, u, ok := lac.Lookup(key); !ok || a != addr || u != units {
		t.Errorf("the leaf-address cache holds %v, %d, %v; want the entry kept at %v, %d", a, u, ok, addr, units)
	}
}
