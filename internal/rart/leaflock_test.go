package rart

import (
	"bytes"
	"errors"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

func leafStatus(t *testing.T, e *Engine, addr mem.Addr) wire.Status {
	t.Helper()
	w, err := e.C.ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	return wire.DecodeLeafHeader(w).Status
}

// TestFaultedLeafLockNeverFreesAnothersLock: a lock attempt cut by a fault
// releases whatever its CAS may have taken — after a transient behind a CAS
// that executed and won, and after a timeout, which hides who won — and that
// release must never free the lock of the writer that actually holds the
// leaf. It cannot: the Locked word names its owner, so two writers of
// same-length values install different words, and the release expects the
// contender's own.
func TestFaultedLeafLockNeverFreesAnothersLock(t *testing.T) {
	key := []byte("lease-a")
	setup := func(t *testing.T) (*fabric.Fabric, *Engine, *Leaf) {
		f, ring, root := leaseCluster(t)
		clean := engineOn(f, ring)
		leaf, err := clean.SearchFrom(root(clean), key, NopHooks{})
		if err != nil || leaf == nil {
			t.Fatalf("search = %v, %v", leaf, err)
		}
		return f, clean, leaf
	}
	// attempt is one lock attempt by the faulty engine b: the tree path's bare
	// CAS, or the speculative CAS+READ batch.
	attempts := map[string]func(b *Engine, leaf *Leaf) error{
		"bare": func(b *Engine, leaf *Leaf) error {
			l := lockOf(leaf)
			return b.TryLeafLock(&l)
		},
		"speculative": func(b *Engine, leaf *Leaf) error {
			_, err := b.SpecLockLeaf(leaf.Addr, leaf.Units, len(leaf.Key), len(leaf.Value))
			return err
		},
	}

	// verbs is the size of each attempt's lock batch: the fault is aimed at
	// every verb of it, ahead of the CAS and behind it.
	verbs := map[string]int{"bare": 1, "speculative": 2}

	for name, attempt := range attempts {
		for _, timeout := range []bool{false, true} {
			fault, want := "transient", fabric.ErrTransient
			if timeout {
				fault, want = "timeout", fabric.ErrTimeout
			}
			t.Run(name+"/"+fault+"/held by another writer", func(t *testing.T) {
				for at := 0; at < verbs[name]; at++ {
					f, a, leaf := setup(t)
					held := lockOf(leaf)
					if err := a.TryLeafLock(&held); err != nil || !held.Held {
						t.Fatalf("holder's lock = %v, %v", held.Held, err)
					}
					b := engineOn(f, a.Ring)
					b.C.FailAt(uint64(at), want)
					if err := attempt(b, leaf); !errors.Is(err, want) {
						t.Fatalf("fault at verb %d: contender = %v, want %v", at, err, want)
					}
					st := b.C.Stats()
					if casRan := st.ByKind[fabric.CAS] > 0; casRan != (at > 0 || timeout) {
						t.Errorf("fault at verb %d: the contender's CAS ran: %v", at, casRan)
					}
					// A transient shows the CAS lost or never ran: nothing to
					// release. A timeout hides it: the owner-tagged release.
					if want := map[bool]uint64{false: 1, true: 2}[timeout]; st.RoundTrips != want {
						t.Errorf("fault at verb %d: contender spent %d round trips, want %d", at, st.RoundTrips, want)
					}
					if got := leafStatus(t, a, leaf.Addr); got != wire.StatusLocked {
						t.Fatalf("fault at verb %d: leaf header is %v while the first writer still holds it: the faulted contender freed a lock it never took", at, got)
					}
					// The holder's release lands on its own lock.
					if err := a.WriteLockedLeaf(&held, key, []byte("w")); err != nil {
						t.Fatal(err)
					}
					if got, stable, err := a.SpecReadLeaf(leaf.Addr, leaf.Units, key); err != nil || !stable || !bytes.Equal(got.Value, []byte("w")) {
						t.Fatalf("fault at verb %d: after the holder's write: %v, %v", at, got, err)
					}
				}
			})
		}
	}

	// The release a faulted attempt owes: nobody else holds the leaf, the CAS
	// executed and won, the READ behind it failed. Left alone, that lock would
	// stand in every writer's way, this put's own restart first. Cut ahead of
	// the CAS, the attempt took nothing and releases nothing.
	t.Run("speculative/transient/won then cut", func(t *testing.T) {
		for at := 0; at < verbs["speculative"]; at++ {
			f, a, leaf := setup(t)
			b := engineOn(f, a.Ring)
			b.C.FailAt(uint64(at), fabric.ErrTransient)
			if err := attempts["speculative"](b, leaf); !errors.Is(err, fabric.ErrTransient) {
				t.Fatalf("fault at verb %d: %v", at, err)
			}
			if got := leafStatus(t, a, leaf.Addr); got != wire.StatusIdle {
				t.Fatalf("fault at verb %d: leaf left %v behind a cut lock batch", at, got)
			}
			if cas, want := b.C.Stats().ByKind[fabric.CAS], uint64(2*at); cas != want {
				t.Errorf("fault at verb %d: %d CASes, want %d (lock, then the release, behind a won CAS)", at, cas, want)
			}
		}
	})
}

// TestFaultedContenderLeavesRelocationLocked: RelocateLeaf holds the leaf
// header lock from its lock batch, which READs the image behind the CAS, to
// the commit that retires the leaf, so that no in-place update can land in
// between and be lost with the retired original. A contender whose lock
// attempt faults right then must leave that lock alone: its retry finds the
// leaf Locked, the relocation copies what it read, and the contender's value
// lands on the copy afterwards.
func TestFaultedContenderLeavesRelocationLocked(t *testing.T) {
	key := []byte("lease-a")
	f, ring, root := leaseCluster(t)
	relocator, clean := engineOn(f, ring), engineOn(f, ring)
	leaf, err := clean.SearchFrom(root(clean), key, NopHooks{})
	if err != nil || leaf == nil {
		t.Fatalf("search = %v, %v", leaf, err)
	}
	contender := engineOn(f, ring)
	contender.C.FailAt(0, fabric.ErrTransient)

	// The contender lands behind the relocator's READ under its leaf lock: the
	// leaf's first READ behind the winning CAS that locked it.
	locked := false
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
		if s.Op.Kind == fabric.CAS && s.Op.Addr == leaf.Addr && s.Op.Old == s.Op.Expect && wire.DecodeLeafHeader(s.Op.Desired).Status == wire.StatusLocked {
			locked = true
		}
		return locked && s.Op.Kind == fabric.Read && s.Op.Addr == leaf.Addr
	})
	contend := func() {
		if got := leafStatus(t, clean, leaf.Addr); got != wire.StatusLocked {
			t.Errorf("leaf header is %v where the contender lands; want the relocator's lock", got)
		}
		if err := contender.updateLeafInPlace(leaf, LeafLock{}, []byte("w"), viaOf(root(clean), key)); !errors.Is(err, fabric.ErrTransient) {
			t.Errorf("contender's faulted update = %v, want a transient", err)
		}
		if got := leafStatus(t, clean, leaf.Addr); got != wire.StatusLocked {
			t.Errorf("leaf header is %v mid-relocation: the faulted contender freed the relocator's lock", got)
		}
		retry := lockOf(leaf)
		if err := contender.TryLeafLock(&retry); err != nil || retry.Held {
			t.Errorf("contender's retry took the leaf under the relocator (held %v, err %v): its write would be lost with the retired original", retry.Held, err)
		}
	}
	var target mem.NodeID
	for _, n := range ring.Nodes() {
		if n != leaf.Addr.Node() {
			target = n
		}
	}
	var moved bool
	fabrictest.Run(f, sw, fabrictest.Proc{C: relocator.C, Fn: func() { moved, err = relocator.RelocateLeaf(root(clean), leaf, target) }},
		fabrictest.Proc{Fn: contend})
	if err != nil || !moved || sw.Turns[0].At == nil {
		t.Fatalf("relocate = %v, %v (the contender at %+v)", moved, err, sw.Turns[0].At)
	}
	if got := leafStatus(t, clean, leaf.Addr); got != wire.StatusInvalid {
		t.Fatalf("old leaf is %v after the move, want Invalid", got)
	}
	if _, err := contender.PutFrom(root(clean), key, []byte("w"), PutUpsert, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	got, err := clean.SearchFrom(root(clean), key, NopHooks{})
	if err != nil || got == nil || got.Addr.Node() != target || !bytes.Equal(got.Value, []byte("w")) {
		t.Fatalf("after relocation + update: %+v, %v", got, err)
	}
}

// TestCommitToKilledNodeReturnsAtOnce: a batch past an operation's commit
// point is re-issued across transients and down windows, but a node that was
// KILLED between the lock and the commit rejects it without executing a verb
// and never comes back. ErrNodeKilled wraps ErrNodeDown, so the re-issue loop
// used to take it for a window, spend its whole backoff budget and end in
// "retries exhausted: publish batch" — an error that names no node, which the
// layer above cannot fail over. It must come back at once, still the kill.
func TestCommitToKilledNodeReturnsAtOnce(t *testing.T) {
	f, ring, root := leaseCluster(t)
	e := engineOn(f, ring)
	key := []byte("lease-a")
	leaf, err := e.SearchFrom(root(e), key, NopHooks{})
	if err != nil || leaf == nil {
		t.Fatalf("search = %v, %v", leaf, err)
	}
	// The node dies right behind the CAS that takes the leaf's lock.
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
		return s.Op.Kind == fabric.CAS && s.Op.Addr == leaf.Addr && s.Op.Old == s.Op.Expect
	})
	before := e.C.Stats()
	fabrictest.Run(f, sw, fabrictest.Proc{C: e.C, Fn: func() {
		_, err = e.PutFrom(root(e), key, bytes.Repeat([]byte("w"), len(leaf.Value)), PutUpsert, NopHooks{})
	}}, fabrictest.Proc{Fn: func() { f.KillNode(leaf.Addr.Node()) }})
	if sw.Turns[0].At == nil {
		t.Fatal("the put never locked the leaf; the kill never landed")
	}
	if !errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("put whose commit met a killed node = %v; want the kill, not an exhausted budget", err)
	}
	if d := e.C.Stats().Sub(before); e.Stats().PublishRetries != 0 || d.NodeDownRejects+d.HealthRejects != 1 {
		t.Errorf("%d re-issues, %d rejected batches; want the one rejection returned", e.Stats().PublishRetries, d.NodeDownRejects+d.HealthRejects)
	}
}
