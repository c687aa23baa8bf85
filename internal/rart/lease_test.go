package rart

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
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

// quickPs bounds a fault-free put under a node nobody holds: a few round
// trips, far below what a waiter spends polling a held lease.
const quickPs = 125_000_000

// putUnderRootQuickly asserts that a fault-free client's insert under the
// root — the node the faulted victim was writing under — finishes in well
// under quickPs of virtual time: the victim must not have left the root
// locked behind its error.
func putUnderRootQuickly(t *testing.T, f *fabric.Fabric, ring *consistenthash.Ring, root func(*Engine) *Node, what string) {
	t.Helper()
	survivor := engineOn(f, ring)
	start := root(survivor)
	t0 := survivor.C.Clock()
	if _, err := survivor.PutFrom(start, []byte("zebra"), []byte("v"), PutUpsert, NopHooks{}); err != nil {
		t.Fatalf("%s: survivor put: %v", what, err)
	}
	if dt := survivor.C.Clock() - t0; dt >= quickPs {
		t.Fatalf("%s: survivor's put under the victim's node took %d ps of virtual time (bound: %d ps): the victim's error exit left the node locked",
			what, dt, int64(quickPs))
	}
}

// TestPreCommitFaultReleasesLocks: a structural write that fails before its
// commit point must not leave its node locked for other clients to wait on. Both cases aim a fault at the batch that writes the fresh
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
		// The victim's insert: only the victim's own batches fault — its
		// allocator and the root image it starts from go through a fault-free
		// client — and the transient is aimed at each of its verbs.
		fabrictest.Cuts(fabric.ErrTransient, func(cut *fabrictest.Cut) {
			f, ring, root := leaseCluster(t)
			clean := engineOn(f, ring)
			victim, start := NewEngine(f.NewClient(), clean.Alloc, ring, Config{}), root(clean)
			var err error
			fabrictest.Run(f, cut, fabrictest.Proc{C: victim.C, Fn: func() {
				_, err = victim.PutFrom(start, []byte("lease-ab"), []byte("v"), PutUpsert, NopHooks{})
			}})
			switch {
			case err == nil:
			case cut.At == nil || !errors.Is(err, fabric.ErrTransient):
				t.Fatalf("transient at verb %d: victim put = %v, want success or a transient fault", cut.K, err)
			default:
				putUnderRootQuickly(t, f, ring, root, fmt.Sprintf("transient at verb %d", cut.K))
			}
		})
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

// TestLiveHolderNeverRobbed: a lock holder that the schedule parks between its
// lock batch and its commit batch — for longer than any rival can afford to
// wait — still holds its lock when it runs again. A rival writing the same
// node (a node lease) or the same leaf (a leaf lock) polls until its backoff
// budget ends, past 500 µs of virtual time, and takes nothing over: the holder
// is alive. No acknowledged write is lost.
func TestLiveHolderNeverRobbed(t *testing.T) {
	for _, tc := range []struct {
		name, key, rival string // the holder's put and the rival's
		// lock accepts the holder's winning lock CAS, given the root's and the
		// leaf's addresses.
		lock func(op fabric.Op, root, leaf mem.Addr) bool
	}{
		{"node lease", "lease-ab", "lease-ac", func(op fabric.Op, root, _ mem.Addr) bool {
			return op.Addr == root.Add(wire.LeaseOff) && op.Desired != 0
		}},
		{"leaf lock", "lease-a", "lease-a", func(op fabric.Op, _, leaf mem.Addr) bool {
			return op.Addr == leaf && wire.DecodeLeafHeader(op.Desired).Status == wire.StatusLocked
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ring, root := leaseCluster(t)
			holder, rival, check := engineOn(f, ring), engineOn(f, ring), engineOn(f, ring)
			leaf, err := check.SearchFrom(root(check), []byte("lease-a"), NopHooks{})
			if err != nil || leaf == nil {
				t.Fatalf("search = %v, %v", leaf, err)
			}
			rootAddr, locked := root(check).Addr, false
			sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
				if s.Op.Kind == fabric.CAS && s.Op.Old == s.Op.Expect && tc.lock(s.Op, rootAddr, leaf.Addr) {
					locked = true
				}
				return locked && s.BatchEnd
			})
			var herr, rerr error
			var waited int64
			fabrictest.Run(f, sw, fabrictest.Proc{C: holder.C, Fn: func() {
				_, herr = holder.PutFrom(root(holder), []byte(tc.key), []byte("h"), PutUpsert, NopHooks{})
			}}, fabrictest.Proc{Fn: func() {
				t0 := rival.C.Clock()
				_, rerr = rival.PutFrom(root(rival), []byte(tc.rival), []byte("r"), PutUpsert, NopHooks{})
				waited = rival.C.Clock() - t0
			}})
			if sw.Turns[0].At == nil {
				t.Fatal("the holder never parked behind its lock; the rival ran after it")
			}
			if herr != nil {
				t.Fatalf("holder's put = %v", herr)
			}
			if !errors.Is(rerr, ErrRetriesExhausted) || waited < 500_000_000 {
				t.Errorf("rival's put = %v after %d ps; want its budget spent on the lock, past 500 µs", rerr, waited)
			}
			want := map[string]string{tc.key: "h"}
			if rerr == nil && tc.rival != tc.key {
				want[tc.rival] = "r"
			}
			for k, v := range want {
				if got, err := check.SearchFrom(root(check), []byte(k), NopHooks{}); err != nil || got == nil || string(got.Value) != v {
					t.Errorf("acknowledged %q = %q reads %+v, %v", k, v, got, err)
				}
			}
			if st := rival.Stats(); st.LockSteals+st.LeafLockBreaks != 0 {
				t.Errorf("the rival stole %d leases and broke %d leaf locks of a live holder", st.LockSteals, st.LeafLockBreaks)
			}
		})
	}
}

// TestCrashRecordFollowsItsLastVerbs: a crash aimed at the unlock that ends a
// commit batch still runs the verbs ahead of it — behind a won landing bet the
// new leaf's WRITE, then the slot WRITE — and the client is recorded crashed
// only once they have. A rival switched in between those two verbs meets a
// live holder and takes nothing over; had it stolen the lease there, its key
// would have gone into the empty slot and the dead holder's slot WRITE would
// have landed over it, acknowledged. Once the holder is recorded, the rival's
// put steals the lease and its key reads back.
func TestCrashRecordFollowsItsLastVerbs(t *testing.T) {
	f, ring, root := leaseCluster(t)
	holder, rival, check := engineOn(f, ring), engineOn(f, ring), engineOn(f, ring)
	rootAddr := root(check).Addr
	// The holder's verbs: the bet's CAS and READ, two allocator FAAs, then the
	// commit batch [W leaf · W slot · CAS unlock]; the crash cuts at the unlock.
	holder.C.FailAt(6, fabric.ErrClientCrashed)
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
		return s.Stage == fabric.StageInstall
	})
	var herr, rerr error
	fabrictest.Run(f, sw, fabrictest.Proc{C: holder.C, Fn: func() {
		start, err := holder.LeaseRead(rootAddr, wire.Node256)
		if err != nil || start == nil || !wire.LeaseOwnedBy(start.LeaseWord, uint16(holder.C.ID())) {
			t.Errorf("LeaseRead = %v, %v; want the root under the holder's lease", start, err)
			return
		}
		_, herr = holder.PutFrom(start, []byte("m1"), []byte("h"), PutUpsert, NopHooks{})
	}}, fabrictest.Proc{Fn: func() {
		_, rerr = rival.PutFrom(root(rival), []byte("m2"), []byte("r"), PutUpsert, NopHooks{})
	}})
	if sw.Turns[0].At == nil || sw.Turns[0].At.Op.Kind != fabric.Write || sw.Turns[0].At.BatchEnd {
		t.Fatalf("switched at %+v; want the commit batch's first WRITE", sw.Turns[0].At)
	}
	if !errors.Is(herr, fabric.ErrClientCrashed) || fabric.Executed(herr) != 2 {
		t.Fatalf("holder's put = %v; want a crash after 2 of the commit batch's verbs", herr)
	}
	if rerr == nil {
		if got, err := check.SearchFrom(root(check), []byte("m2"), NopHooks{}); err != nil || got == nil || string(got.Value) != "r" {
			t.Fatalf("the rival's acknowledged m2 reads %+v, %v: the dead holder's slot WRITE landed after the lease changed hands", got, err)
		}
	} else if !errors.Is(rerr, ErrRetriesExhausted) || rival.Stats().LockSteals != 0 {
		t.Fatalf("rival's put = %v after %d steals; want a wait on a live holder", rerr, rival.Stats().LockSteals)
	}
	if _, err := rival.PutFrom(root(rival), []byte("m2"), []byte("r"), PutUpsert, NopHooks{}); err != nil || rival.Stats().LockSteals != 1 {
		t.Fatalf("rival's put behind the crashed holder = %v after %d steals; want one steal", err, rival.Stats().LockSteals)
	}
	if got, err := check.SearchFrom(root(check), []byte("m2"), NopHooks{}); err != nil || got == nil || string(got.Value) != "r" {
		t.Errorf("acknowledged m2 reads %+v, %v", got, err)
	}
}

// TestReleaseOutlastsDownWindow: a down window on the memory node of a held
// lock, opened once the holder has it and longer than the holder's backoff
// budget, keeps its releasing batch out — the commit batch ending in the
// lease's unlock, the leaf's releasing WRITE. Nobody takes over a live
// holder's lock, so the holder waits the window out and releases: the put
// succeeds, and another client reads the key and writes under the node at
// once afterwards.
func TestReleaseOutlastsDownWindow(t *testing.T) {
	const windowPs = 10_000_000_000 // 10 ms, about three backoff budgets
	for _, tc := range []struct {
		name, key string
		// lock accepts the holder's winning lock CAS, given the root's and the
		// leaf's addresses; the window opens on that CAS's memory node.
		lock func(op fabric.Op, root, leaf mem.Addr) bool
	}{
		{"node lease", "lease-ab", func(op fabric.Op, root, _ mem.Addr) bool {
			return op.Addr == root.Add(wire.LeaseOff) && op.Desired != 0
		}},
		{"leaf lock", "lease-a", func(op fabric.Op, _, leaf mem.Addr) bool {
			return op.Addr == leaf && wire.DecodeLeafHeader(op.Desired).Status == wire.StatusLocked
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ring, root := leaseCluster(t)
			plan := &fabric.FaultPlan{Seed: 1}
			f.SetFaultPlan(plan)
			holder := engineOn(f, ring)
			f.SetFaultPlan(nil)
			check := engineOn(f, ring)
			leaf, err := check.SearchFrom(root(check), []byte("lease-a"), NopHooks{})
			if err != nil || leaf == nil {
				t.Fatalf("search = %v, %v", leaf, err)
			}
			rootAddr, locked := root(check).Addr, mem.Addr(0)
			sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
				if s.Op.Kind == fabric.CAS && s.Op.Old == s.Op.Expect && tc.lock(s.Op, rootAddr, leaf.Addr) {
					locked = s.Op.Addr
				}
				return locked != 0 && s.BatchEnd
			})
			var herr error
			var until int64
			fabrictest.Run(f, sw, fabrictest.Proc{C: holder.C, Fn: func() {
				_, herr = holder.PutFrom(root(holder), []byte(tc.key), []byte("h"), PutUpsert, NopHooks{})
			}}, fabrictest.Proc{Fn: func() {
				until = holder.C.Clock() + windowPs
				plan.Down = []fabric.DownWindow{{Node: locked.Node(), FromPs: 0, ToPs: until}}
			}})
			if sw.Turns[0].At == nil {
				t.Fatal("the holder never took its lock")
			}
			if herr != nil || holder.C.Clock() < until || holder.C.Stats().NodeDownRejects == 0 {
				t.Fatalf("holder's put = %v at %d ps after %d down rejects; want its release to wait out the window to %d ps",
					herr, holder.C.Clock(), holder.C.Stats().NodeDownRejects, until)
			}
			if got, err := check.SearchFrom(root(check), []byte(tc.key), NopHooks{}); err != nil || got == nil || string(got.Value) != "h" {
				t.Errorf("acknowledged %q reads %+v, %v: the lock is still held", tc.key, got, err)
			}
			putUnderRootQuickly(t, f, ring, root, tc.name)
		})
	}
}
