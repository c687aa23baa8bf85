package rart

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
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
		// put is the victim's insert: only the victim's own batches fault —
		// its allocator and the root image it starts from go through a
		// fault-free client — and the transient is aimed at its verb at.
		put := func(at uint64, aim bool) (*fabric.Client, error) {
			f, ring, root := leaseCluster(t)
			vc := f.NewClient()
			if aim {
				vc.FailAt(at, fabric.ErrTransient)
			}
			clean := engineOn(f, ring)
			victim := NewEngine(vc, clean.Alloc, ring, Config{})
			_, err := victim.PutFrom(root(clean), []byte("lease-ab"), []byte("v"), PutUpsert, NopHooks{})
			if err != nil {
				if !errors.Is(err, fabric.ErrTransient) {
					t.Fatalf("transient at verb %d: victim put = %v, want success or a transient fault", at, err)
				}
				putUnderRootQuickly(t, f, ring, root, fmt.Sprintf("transient at verb %d", at))
			}
			return vc, err
		}
		vc, err := put(0, false)
		if err != nil {
			t.Fatal(err)
		}
		for at := uint64(0); at < vc.Stats().Verbs; at++ {
			put(at, true)
		}
	})
}

// TestNodeIsOneSizeClass: a decoded Node is exactly 128 bytes, one allocator
// size class; a field more makes it 144 and every node read allocates the next
// class up. What an engine knows about an image (the lease a bet won with it:
// the engine's hand) is kept beside the image, not on it.
func TestNodeIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size != 128 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 128", size)
	}
}

// TestLeaseReadIsTheLock: the image LeaseRead returns behind a won CAS is the
// locked image — the write that follows posts no lease CAS and no re-READ of
// that node, only its staged objects — and behind a lost CAS it is the
// unlocked image, with no bet held, no wait taken and the holder's lease
// untouched. A lease given back is 0 in memory and in the image.
func TestLeaseReadIsTheLock(t *testing.T) {
	f, ring, readRoot := leaseCluster(t)
	e := engineOn(f, ring)
	rootAddr := readRoot(e).Addr
	probe := engineOn(f, ring)
	leaseAt := func() uint64 {
		w, err := probe.C.ReadUint64(rootAddr.Add(wire.LeaseOff))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var log batchLog
	e.C.SetObserver(&log)

	// Won and used: the conversion of the root's edge 'l' posts no lock batch —
	// its staged WRITEs lead the commit batch, which releases the lease.
	root, err := e.LeaseRead(rootAddr, wire.Node256)
	if err != nil || root == nil || !wire.LeaseOwnedBy(root.LeaseWord, uint16(e.C.ID())) || leaseAt() != root.LeaseWord {
		t.Fatalf("LeaseRead = %v, %v with lease %#x in memory; want the root under our lease", root, err, leaseAt())
	}
	if _, err := e.PutFrom(root, []byte("lease-b"), []byte("v"), PutUpsert, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range log.evs {
		if ev.Stage != fabric.StageAlloc {
			got = append(got, fmt.Sprintf("%v/%d", ev.Stage, ev.Verbs))
		}
	}
	// CAS,READ | old leaf | W leaf + W node + W slot + CAS unlock
	if want := "[lock/2 leaf-read/1 publish/4]"; fmt.Sprint(got) != want {
		t.Errorf("batches of the put behind a won bet = %v, want %s", got, want)
	}
	if st := e.Stats(); st.LeaseBets != 1 || st.LeaseBetsLost != 0 || st.LeaseBetsReturned != 0 || leaseAt() != 0 {
		t.Errorf("bets %d, lost %d, returned %d, lease %#x; want 1, 0, 0, 0", st.LeaseBets, st.LeaseBetsLost, st.LeaseBetsReturned, leaseAt())
	}

	// Won and given back.
	if root, err = e.LeaseRead(rootAddr, wire.Node256); err != nil || leaseAt() == 0 {
		t.Fatalf("second LeaseRead: %v, lease %#x", err, leaseAt())
	}
	e.Release(BetRoundEnded)
	if st := e.Stats(); st.LeaseBetsReturned != 1 || leaseAt() != 0 || root.LeaseWord != 0 {
		t.Errorf("returned %d, lease %#x in memory, %#x in the image; want 1, 0, 0", st.LeaseBetsReturned, leaseAt(), root.LeaseWord)
	}

	// Lost: a rival holds the lease.
	rival := engineOn(f, ring)
	held, err := rival.Lock(rootAddr, wire.Node256, 0)
	if err != nil {
		t.Fatal(err)
	}
	clock, batches := e.C.Clock(), len(log.evs)
	root, err = e.LeaseRead(rootAddr, wire.Node256)
	if err != nil || root == nil || root.LeaseWord != held.LeaseWord || leaseAt() != held.LeaseWord {
		t.Fatalf("LeaseRead under a rival's lease = %v, %v; want the unlocked image carrying the rival's word", root, err)
	}
	if len(log.evs) != batches+1 || log.evs[batches].EndPs != e.C.Clock() || log.evs[batches].StartPs != clock {
		t.Errorf("a lost bet posted %d batches and moved the clock off them; want 1 batch, no wait", len(log.evs)-batches)
	}
	e.Release(BetRoundEnded) // nothing to return
	if st := e.Stats(); st.LeaseBets != 3 || st.LeaseBetsLost != 1 || st.LeaseBetsReturned != 1 || leaseAt() != held.LeaseWord {
		t.Errorf("bets %d, lost %d, returned %d, lease %#x; want 3, 1, 1 and the rival's word", st.LeaseBets, st.LeaseBetsLost, st.LeaseBetsReturned, leaseAt())
	}
}
