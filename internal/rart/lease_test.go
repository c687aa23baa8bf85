package rart

import (
	"errors"
	"fmt"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// leaseCluster builds a three-node cluster with the root on node 0 and one
// key under it, so the next put of a key sharing its first byte converts the
// root's leaf edge — a write that locks the root and writes fresh objects on
// other memory nodes.
func leaseCluster(t *testing.T) (*fabric.Fabric, *consistenthash.Ring, func(*Engine) *Node) {
	t.Helper()
	f, ring, root := scanCluster(t)
	setup := engineOn(f, ring)
	if _, err := setup.PutFrom(root(setup), []byte("lease-a"), []byte("v"), PutUpsert, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	return f, ring, root
}

func engineOn(f *fabric.Fabric, ring *consistenthash.Ring) *Engine {
	c := f.NewClient()
	return NewEngine(c, mem.NewAllocator(c, 0), ring, Config{})
}

// putUnderRootQuickly asserts that a fault-free client's insert under the
// root — the node the faulted victim was writing under — finishes in well
// under one lease of virtual time: the victim must not have left the root
// locked behind its error.
func putUnderRootQuickly(t *testing.T, f *fabric.Fabric, ring *consistenthash.Ring, root func(*Engine) *Node, what string) {
	t.Helper()
	survivor := engineOn(f, ring)
	start := root(survivor)
	t0 := survivor.C.Clock()
	if _, err := survivor.PutFrom(start, []byte("zebra"), []byte("v"), PutUpsert, NopHooks{}); err != nil {
		t.Fatalf("%s: survivor put: %v", what, err)
	}
	if dt := survivor.C.Clock() - t0; dt >= defaultLeasePs/4 {
		t.Fatalf("%s: survivor's put under the victim's node took %d ps of virtual time (lease: %d ps): the victim's error exit left the node locked",
			what, dt, int64(defaultLeasePs))
	}
}

// TestPreCommitFaultReleasesLocks: a structural write that fails before its
// commit point must not leave its node locked for other clients to wait out
// a full lease. Both cases aim a fault at the batch that writes the fresh
// objects of a leaf conversion.
func TestPreCommitFaultReleasesLocks(t *testing.T) {
	t.Run("node-down window on the fresh leaf's home", func(t *testing.T) {
		f, ring, root := leaseCluster(t)
		// Pick a victim key whose fresh leaf lives on a node that neither the
		// root nor the old leaf lives on, and take that node down for the
		// victim: its descent still works, its fresh-leaf WRITE cannot.
		var key []byte
		var down mem.NodeID
		for i := 0; key == nil; i++ {
			if i == 1000 {
				t.Fatal("no victim key with a leaf home apart from the root's and the old leaf's")
			}
			k := []byte(fmt.Sprintf("lease-a%03d", i))
			if home := ring.OwnerKey(k); home != ring.Nodes()[0] && home != ring.OwnerKey([]byte("lease-a")) {
				key, down = k, home
			}
		}
		f.SetFaultPlan(&fabric.FaultPlan{Seed: 1, Down: []fabric.DownWindow{{Node: down, FromPs: 0, ToPs: 1 << 62}}})
		victim := engineOn(f, ring)
		f.SetFaultPlan(nil)
		_, err := victim.PutFrom(root(victim), key, []byte("v"), PutUpsert, NopHooks{})
		if !errors.Is(err, fabric.ErrNodeDown) {
			t.Fatalf("victim put = %v, want a node-down error; the window missed the write", err)
		}
		putUnderRootQuickly(t, f, ring, root, "node-down window")
	})

	t.Run("transient truncation sweep", func(t *testing.T) {
		aimed, locked := 0, 0
		for seed := uint64(1); seed <= 200; seed++ {
			f, ring, root := leaseCluster(t)
			f.SetFaultPlan(&fabric.FaultPlan{Seed: seed, TransientPer64k: 1 << 14})
			vc := f.NewClient()
			f.SetFaultPlan(nil)
			// Only the victim's own batches fault: its allocator and the root
			// image it starts from go through a fault-free client, so most
			// faults land on the write path under test.
			clean := engineOn(f, ring)
			victim := NewEngine(vc, clean.Alloc, ring, Config{})
			_, err := victim.PutFrom(root(clean), []byte("lease-ab"), []byte("v"), PutUpsert, NopHooks{})
			if err == nil {
				continue
			}
			if !errors.Is(err, fabric.ErrTransient) {
				t.Fatalf("seed %d: victim put = %v, want success or a transient fault", seed, err)
			}
			st := vc.Stats()
			if st.Transients > 1 {
				continue // the best-effort release faulted too
			}
			aimed++
			if st.ByKind[fabric.CAS] > 0 {
				locked++ // the batch was cut after its lock CAS had executed
			}
			putUnderRootQuickly(t, f, ring, root, fmt.Sprintf("transient seed %d", seed))
		}
		if aimed == 0 || locked == 0 {
			t.Fatalf("%d seeds faulted the victim exactly once, %d of them after its lock CAS; the sweep exercises nothing", aimed, locked)
		}
	})
}
