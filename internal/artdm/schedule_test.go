package artdm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// scheduledInserts runs the concurrent-insert shape that loses acknowledged
// keys under goroutines (TestConcurrentClients) as one schedule of p: 8
// clients insert 6 keys each, wNN-key-000i, into a fresh 3 × 1 MiB cluster,
// each stopping at its first failed insert. It returns the acknowledged keys
// that do not read back and the locks still held once every client is done
// (heldLocks), the failed inserts' errors and the schedule's parks.
func scheduledInserts(t *testing.T, p fabrictest.Picker) (lost []string, failed []error, parks int) {
	t.Helper()
	const workers, perWorker = 8, 6
	f := fabric.New(fabric.DefaultConfig())
	nodes := make([]mem.NodeID, 3)
	for i := range nodes {
		nodes[i] = f.AddNode(1 << 20)
	}
	shared, err := Bootstrap(f, consistenthash.New(nodes, 0))
	if err != nil {
		t.Fatal(err)
	}
	key := func(w, i int) string { return fmt.Sprintf("w%02d-key-%04d", w, i) }
	acked := make([]int, workers)
	var procs []fabrictest.Proc
	for w := 0; w < workers; w++ {
		c := newTestClient(f, shared)
		procs = append(procs, fabrictest.Proc{C: c.Engine().C, Fn: func() {
			for i := 0; i < perWorker; i++ {
				if _, err := c.Insert([]byte(key(w, i)), []byte(fmt.Sprint(i))); err != nil {
					failed = append(failed, fmt.Errorf("%s: %w", key(w, i), err))
					return
				}
				acked[w]++
			}
		}})
	}
	parks = len(fabrictest.Run(f, p, procs...))
	r := newTestClient(f, shared)
	lost = heldLocks(t, r.Engine(), shared.Root)
	for w := 0; w < workers; w++ {
		for i := 0; i < acked[w]; i++ {
			if v, ok, err := r.Search([]byte(key(w, i))); err != nil || !ok || string(v) != fmt.Sprint(i) {
				lost = append(lost, fmt.Sprintf("%s reads %q, %v, %v", key(w, i), v, ok, err))
			}
		}
	}
	return lost, failed, parks
}

// heldLocks walks the tree from its root and names every lock still held: a
// node whose lease word is not 0, a leaf whose header is Locked. Once every
// client is done, a live one has released what it took, so a lock wait that
// ran out its budget waited on a holder that was parked, not on a leaked lock.
func heldLocks(t *testing.T, e *rart.Engine, root mem.Addr) (held []string) {
	t.Helper()
	var walk func(addr mem.Addr, typ wire.NodeType)
	walk = func(addr mem.Addr, typ wire.NodeType) {
		n, err := e.ReadNode(addr, typ)
		if err != nil {
			t.Fatalf("node %v: %v", addr, err)
		}
		if n.LeaseWord != 0 {
			held = append(held, fmt.Sprintf("node %v leased %#x", addr, n.LeaseWord))
		}
		for _, s := range append(n.Children(), n.EOL) {
			switch {
			case !s.Present:
			case !s.Leaf:
				walk(s.Addr, s.ChildType)
			default:
				w, err := e.C.ReadUint64(s.Addr)
				if err != nil {
					t.Fatalf("leaf %v: %v", s.Addr, err)
				}
				if wire.DecodeLeafHeader(w).Status == wire.StatusLocked {
					held = append(held, fmt.Sprintf("leaf %v locked %#x", s.Addr, w))
				}
			}
		}
	}
	walk(root, wire.Node256)
	return held
}

// TestScheduledInsertsKeepEveryKey runs the shape one verb-granular
// interleaving at a time, the schedule picked uniformly at every verb from the
// seed — seeds 1 to 20 — and every key acknowledged reads back.
func TestScheduledInsertsKeepEveryKey(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		if lost, failed, parks := scheduledInserts(t, fabrictest.NewSeeded(seed)); len(lost)+len(failed) > 0 {
			t.Errorf("seed %d (%d parks): lost or left locked %q; failed %v", seed, parks, lost, failed)
		}
	}
}

// TestHoldReplaysKeepEveryKey replays two schedules of the shape that lost
// keys under the picker that keeps a proc for stretches (fabrictest.Hold). In
// both, a waiter took the lock of a live holder that the schedule had parked
// for long — stay 64, seed 203 lost w04-key-0000..0002, and stay 4, seed 374
// w00-key-0001..0002, the stealer's own keys. A lock changes hands only when
// its holder crashed, so every key is acknowledged and reads back.
func TestHoldReplaysKeepEveryKey(t *testing.T) {
	for _, r := range []struct{ stay, seed uint64 }{{64, 203}, {4, 374}} {
		if lost, failed, parks := scheduledInserts(t, fabrictest.NewHold(r.seed, r.stay)); len(lost)+len(failed) > 0 {
			t.Errorf("stay %d, seed %d (%d parks): lost or left locked %q; failed %v", r.stay, r.seed, parks, lost, failed)
		}
	}
}

// TestHoldSweepKeepsEveryKey runs the shape under the hold picker at stay 4,
// 16 and 64 over a fixed range of seeds: every acknowledged key reads back,
// and no lock is held once every client is done. A stretch can keep a waiter
// polling while the holder it waits for stays parked, past the waiter's
// backoff budget, so an insert may fail — with ErrRetriesExhausted from a lock
// wait, and nothing else; with no lock left behind, the holder it waited for
// released the lock afterwards. Those failures are counted in the log.
func TestHoldSweepKeepsEveryKey(t *testing.T) {
	const seeds = 30
	for _, stay := range []uint64{4, 16, 64} {
		starved := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			lost, failed, parks := scheduledInserts(t, fabrictest.NewHold(seed, stay))
			if len(lost) > 0 {
				t.Errorf("stay %d, seed %d (%d parks): lost or left locked %q", stay, seed, parks, lost)
			}
			for _, err := range failed {
				if !errors.Is(err, rart.ErrRetriesExhausted) || !strings.Contains(err.Error(), "retries exhausted: lock on ") {
					t.Errorf("stay %d, seed %d (%d parks): %v; want only a lock wait's budget spent", stay, seed, parks, err)
				}
			}
			starved += len(failed)
		}
		t.Logf("stay %d, seeds 1..%d: %d inserts failed on a lock wait", stay, seeds, starved)
	}
}
