package artdm

import (
	"fmt"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
)

// scheduledInserts runs the concurrent-insert shape that loses acknowledged
// keys under goroutines (TestConcurrentClients) as one schedule of p: 8
// clients insert 6 keys each, wNN-key-000i, into a fresh 3 × 1 MiB cluster,
// each stopping at its first failed insert. It returns the acknowledged keys
// that do not read back and the locks still held once every client is done
// — the findings of the index check (fsck) — the failed inserts' errors and
// the schedule's parks.
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
	for _, fd := range fsck(f.NewClient(), shared).Findings {
		lost = append(lost, fd.String())
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < acked[w]; i++ {
			if v, ok, err := r.Search([]byte(key(w, i))); err != nil || !ok || string(v) != fmt.Sprint(i) {
				lost = append(lost, fmt.Sprintf("%s reads %q, %v, %v", key(w, i), v, ok, err))
			}
		}
	}
	return lost, failed, parks
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

// TestHoldReplaysKeepEveryKey replays the two shapes of schedule that lost
// keys while a waiter could take a live holder's lock on a timer (found under
// the hold picker: stay 64, seed 203 lost the holder's w04-key-0000..0002;
// stay 4, seed 374 the stealer's own w00-key-0001..0002). A script parks the
// holder behind the lock CAS it won at its first or its second insert, and
// runs a waiter for all but the last poll of its budget on that lock, then
// the holder, then the rest. A lock changes hands only when its holder
// crashed, so the waiter waits it out: every key is acknowledged and reads
// back.
func TestHoldReplaysKeepEveryKey(t *testing.T) {
	for _, r := range []struct{ holder, won, waiter int }{{4, 1, 0}, {0, 2, 1}} {
		won, polls := 0, 0
		script := &fabrictest.Script{Turns: []fabrictest.Turn{
			{Proc: r.holder, Until: func(s fabrictest.Step) bool {
				if s.Op.Kind == fabric.CAS && s.Op.Old == s.Op.Expect && s.Op.Desired != 0 {
					won++
				}
				return won == r.won && s.BatchEnd
			}},
			{Proc: r.waiter, Until: func(s fabrictest.Step) bool {
				if s.Wait {
					polls++
				}
				return polls == fabric.DefaultBackoffBudget-1
			}},
			{Proc: r.holder},
		}}
		lost, failed, parks := scheduledInserts(t, script)
		if len(lost)+len(failed) > 0 || script.Turns[1].At == nil {
			t.Errorf("holder %d parked at its lock %d, waiter %d (%d parks, the waiter's turn ended at %+v): lost or left locked %q; failed %v",
				r.holder, r.won, r.waiter, parks, script.Turns[1].At, lost, failed)
		}
	}
}

// TestHoldSweepKeepsEveryKey runs the shape under the hold picker at stay 4,
// 16 and 64 over seeds 1..300: every insert is acknowledged and reads back,
// and the index check finds nothing — no lock held — once every client is
// done. A waiter's poll is a park that hands the turn on, so no stretch keeps
// a waiter polling while the holder it waits for stays parked.
func TestHoldSweepKeepsEveryKey(t *testing.T) {
	const seeds = 300
	for _, stay := range []uint64{4, 16, 64} {
		failures := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			lost, failed, parks := scheduledInserts(t, fabrictest.NewHold(seed, stay))
			if len(lost)+len(failed) > 0 {
				t.Errorf("stay %d, seed %d (%d parks): lost or left locked %q; failed %v", stay, seed, parks, lost, failed)
			}
			failures += len(failed)
		}
		t.Logf("stay %d, seeds 1..%d: %d inserts failed", stay, seeds, failures)
	}
}
