package rart

import (
	"bytes"
	"errors"
	"testing"

	"sphinx/internal/fabric"
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

// TestFaultedLeafLockNeverFreesAnothersLock: the leaf header names no owner,
// so two writers of same-length values install the identical Locked word. A
// lock attempt cut by a fault may therefore release only what it provably
// took — after a transient that fell behind a CAS that executed and won.
// Anything looser (release after any transient, or after a timeout) frees the
// lock of the writer that actually holds the leaf, at once, not after a lease.
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
					if st.RoundTrips != 1 {
						t.Errorf("fault at verb %d: contender spent %d round trips; it lost (or never ran) its CAS and has nothing to release", at, st.RoundTrips)
					}
					if got := leafStatus(t, a, leaf.Addr); got != wire.StatusLocked {
						t.Fatalf("fault at verb %d: leaf header is %v while the first writer still holds it: the faulted contender freed a lock it never took", at, got)
					}
					// The holder's release lands on its own lock.
					if err := a.WriteLockedLeaf(&held, key, []byte("w")); err != nil {
						t.Fatal(err)
					}
					if got, err := a.ReadLeaf(leaf.Addr); err != nil || !bytes.Equal(got.Value, []byte("w")) {
						t.Fatalf("fault at verb %d: after the holder's write: %v, %v", at, got, err)
					}
				}
			})
		}
	}

	// The one release a faulted attempt owes: nobody else holds the leaf, the
	// CAS executed and won, the READ behind it failed. Left alone, that lock
	// costs this put's own restart a whole lease. Cut ahead of the CAS, the
	// attempt took nothing and releases nothing.
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
// header lock from its re-read to the copy, so that no in-place update can
// land in between and be lost with the retired original. A contender whose
// lock attempt faults right then must leave that lock alone: its retry finds
// the leaf Locked, the relocation copies what it read, and the contender's
// value lands on the copy afterwards.
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

	var interleaved bool
	f.Trace = func(c *fabric.Client, op *fabric.Op) {
		// The relocator's re-read under its leaf lock.
		if c != relocator.C || op.Kind != fabric.Read || op.Addr != leaf.Addr || leafStatus(t, clean, leaf.Addr) != wire.StatusLocked {
			return
		}
		f.Trace = nil
		interleaved = true
		if err := contender.updateLeafInPlace(leaf, []byte("w")); !errors.Is(err, fabric.ErrTransient) {
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
	moved, err := relocator.RelocateLeaf(root(clean), key, target)
	if err != nil || !moved || !interleaved {
		t.Fatalf("relocate = %v, %v (interleaved %v)", moved, err, interleaved)
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
	f.Trace = func(c *fabric.Client, o *fabric.Op) {
		if c == e.C && o.Kind == fabric.CAS && o.Addr == leaf.Addr && o.Old == o.Expect {
			f.Trace = nil
			f.KillNode(leaf.Addr.Node())
		}
	}
	before := e.C.Stats()
	_, err = e.PutFrom(root(e), key, bytes.Repeat([]byte("w"), len(leaf.Value)), PutUpsert, NopHooks{})
	f.Trace = nil
	if !errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("put whose commit met a killed node = %v; want the kill, not an exhausted budget", err)
	}
	if d := e.C.Stats().Sub(before); e.Stats().PublishRetries != 0 || d.NodeDownRejects+d.HealthRejects != 1 {
		t.Errorf("%d re-issues, %d rejected batches; want the one rejection returned", e.Stats().PublishRetries, d.NodeDownRejects+d.HealthRejects)
	}
}
