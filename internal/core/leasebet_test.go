package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
	"sphinx/internal/rart/fscktest"
	"sphinx/internal/wire"
)

// Tests of the lease bet (DESIGN.md §5.6, level 0): the jump start of a put
// that may insert reads its landing node behind the CAS for the node's lease.
// A lost bet costs nothing, a won bet is the write's lock or is given back
// before the put does anything else, and nothing else ever posts the CAS.

// bets counts, in a batch log, the landing batches: lock batches posted right
// behind a hash read.
func (b *batchLog) bets() (n int) {
	for i, ev := range b.evs {
		if i > 0 && ev.Stage == fabric.StageLock && b.evs[i-1].Stage == fabric.StageHashRead {
			n++
		}
	}
	return n
}

// waits lists the virtual time that passed between each batch of the log and
// the next: backoff, the only thing that moves a client's clock off a batch.
func (b *batchLog) waits() (ps []int64) {
	for i := 1; i < len(b.evs); i++ {
		ps = append(ps, b.evs[i].StartPs-b.evs[i-1].EndPs)
	}
	return ps
}

// leaseWordOf reads a node's lease word from memory.
func leaseWordOf(t *testing.T, c *Client, n *rart.Node) uint64 {
	t.Helper()
	w, err := c.eng.C.ReadUint64(n.LeaseAddr())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// warmSlabs has c reserve its allocator slabs on every memory node, with
// inserts under the root that touch no node the tests watch.
func warmSlabs(t *testing.T, c *Client) {
	t.Helper()
	for i := 0; i < 12; i++ {
		if _, err := c.Insert([]byte(fmt.Sprintf("warm-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// landingOf locates, without a bet, the node a jump toward key lands on.
func landingOf(t *testing.T, c *Client, key string, prefix string) *rart.Node {
	t.Helper()
	n, l, err := c.locate([]byte(key), len(key))
	if err != nil || l != len(prefix) {
		t.Fatalf("locating the landing of %q: prefix %d, %v; want %d", key, l, err, len(prefix))
	}
	// The test's own copy: the engine's image lives until c's next operation.
	return n.Clone()
}

// TestLeaseBetLostNeverWaits: a rival holds the landing's lease when the put
// jumps. The bet's CAS loses, the READ behind it is the unlocked image the
// put would have read anyway, and the put goes on as if it had never bet: its
// batches are, one for one, those of a put that reads the node and then locks
// it, it waits where that one waits and as long, and it counts no restart.
//
// At a remembered address the lost bet comes first and the table read second:
// a leased image is not trusted, the table confirms the address, and the image
// just read is the landing — the same batches in all, none read twice.
func TestLeaseBetLostNeverWaits(t *testing.T) {
	t.Run("first touch", func(t *testing.T) { leaseBetLostNeverWaits(t, false) })
	t.Run("remembered landing", func(t *testing.T) { leaseBetLostNeverWaits(t, true) })
}

func leaseBetLostNeverWaits(t *testing.T, remembered bool) {
	sc := writeScenarios[0]
	var eng0 rart.EngineStats // the victim's counters before its put
	run := func(bet bool) (log batchLog, c *Client) {
		f, shared, setup := sc.build(t, 2)
		landing := landingOf(t, setup, sc.key, "budget-")
		c = NewClient(shared, f.NewClient(), Options{Filter: setup.filter, LeafCache: testLAC(0)})
		// Allocator slabs and directory caches first: the put's batches are
		// then its hash read, its landing, and the lock and commit levels.
		warmSlabs(t, c)
		warmSearch(t, c, []byte("budget-a"), []byte("v-budget-a"))
		if !remembered {
			c.lac.Reset() // the read taught the cache where the landing lives
		}
		rival := newTestClient(f, shared, Options{})
		held, err := rival.eng.Lock(landing.Addr, landing.Hdr.Type, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng0 = c.eng.Stats()
		c.eng.C.SetObserver(&log)
		key, value := []byte(sc.key), []byte("victim")
		put := func() {
			if bet {
				_, err = c.Insert(key, value)
				return
			}
			// The put without the bet, by hand: locate reads the landing
			// unlocked, the tree write takes it from there.
			var start *rart.Node
			if start, _, err = c.locate(key, len(key)); err == nil {
				_, err = c.eng.PutFrom(start, key, value, rart.PutUpsert, hooks{c})
			}
		}
		// The rival lets go while the victim is polling: behind the victim's
		// fourth batch — hash read and landing (in either order), lock batch,
		// first poll.
		sw := fabrictest.Switch(4, fabrictest.AtBatchEnd)
		fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: put}, fabrictest.Proc{Fn: func() {
			if err := rival.eng.C.Batch([]fabric.Op{rival.eng.UnlockOp(held)}); err != nil {
				t.Errorf("rival release: %v", err)
			}
		}})
		c.eng.C.SetObserver(nil)
		if err != nil || sw.Turns[0].At == nil || len(log.evs) <= 4 {
			t.Fatalf("put (bet %v): %v, %d batches, the release at %+v; want it behind the fourth", bet, err, len(log.evs), sw.Turns[0].At)
		}
		return log, c
	}
	ref, _ := run(false)
	got, c := run(true)

	landing, wantAborts := 1, uint64(0) // first touch: hash read, then the landing
	if remembered {
		landing, wantAborts = 0, 1
	}
	if got.evs[landing].Stage != fabric.StageLock || got.evs[1-landing].Stage != fabric.StageHashRead ||
		ref.evs[landing].Stage != fabric.StageNodeRead {
		t.Fatalf("the put's first two batches: %v, %v with the bet, %v, %v without; want the landing at %d beside the hash read",
			got.evs[0].Stage, got.evs[1].Stage, ref.evs[0].Stage, ref.evs[1].Stage, landing)
	}
	if len(got.evs) != len(ref.evs) {
		t.Fatalf("the put posted %d batches, %d without the bet; want them equal:\n%+v\n%+v", len(got.evs), len(ref.evs), got.evs, ref.evs)
	}
	for i, ev := range got.evs {
		want := ref.evs[i].Stage
		if want == fabric.StageNodeRead {
			want = fabric.StageLock // the landing
		}
		if ev.Stage != want || ev.RoundTrips != ref.evs[i].RoundTrips {
			t.Errorf("batch %d: %v, %d RT; without the bet %v, %d RT", i, ev.Stage, ev.RoundTrips, ref.evs[i].Stage, ref.evs[i].RoundTrips)
		}
	}
	if fmt.Sprint(got.waits()) != fmt.Sprint(ref.waits()) {
		t.Errorf("waits between batches = %v ps, without the bet %v; a lost bet adds none", got.waits(), ref.waits())
	}
	// Hash read and landing, lock batch, polls, commit: the waits are the
	// backoff ahead of each poll. The bet itself never polls.
	if w := got.waits(); w[0] != 0 || w[1] != 0 || w[2] == 0 {
		t.Errorf("waits between the put's batches = %v ps; want none before the lock batch and some behind it", w)
	}
	if st := c.eng.Stats(); st.LeaseBets != eng0.LeaseBets+1 || st.LeaseBetsLost != 1 || st.LeaseBetsReturned != 0 || st.LockSteals != 0 {
		t.Errorf("bets %d, lost %d, returned %d, steals %d; want 1, 1, 0, 0", st.LeaseBets-eng0.LeaseBets, st.LeaseBetsLost, st.LeaseBetsReturned, st.LockSteals)
	}
	if c.Stats().Restarts != 0 {
		t.Errorf("a lost bet counted %d restarts, want 0", c.Stats().Restarts)
	}
	if st := c.Stats(); st.NodeAborts != wantAborts || st.NodeRefutes != 0 {
		t.Errorf("%d remembered addresses met leased, %d refuted; want %d, 0", st.NodeAborts, st.NodeRefutes, wantAborts)
	}
	warmSearch(t, c, []byte(sc.key), []byte("victim"))
}

// strangerEntry plants, under prefix's hash and fingerprint, an entry naming
// the node at addr — a node of another prefix — and teaches the filter the
// prefix: a jump toward it meets a candidate that fails the Fig 3 check.
func strangerEntry(t *testing.T, c *Client, prefix string, typ wire.NodeType, addr mem.Addr) {
	t.Helper()
	e := wire.HashEntry{Valid: true, FP: wire.FP12([]byte(prefix)), Type: typ, Addr: addr}
	if err := c.viewFor([]byte(prefix)).Insert(wire.PrefixHash42([]byte(prefix)), e, c.eng.Alloc); err != nil {
		t.Fatal(err)
	}
	c.filter.Insert(PrefixFilterHash([]byte(prefix)))
	fscktest.Unplant(c.eng.C.Fabric(), func() {
		if err := c.viewFor([]byte(prefix)).Remove(wire.PrefixHash42([]byte(prefix)), e); err != nil {
			t.Error(err)
		}
	})
}

// TestLeaseBetAlwaysReturned walks the table of everything that is not a put
// linking a leaf at its landing. The first half never bets: no lease CAS
// rides a landing read. The second half bets, wins and cannot use the lease:
// it goes back in a round trip of its own, named on the trace, and when the
// operation returns the landing's lease word is 0 in memory.
func TestLeaseBetAlwaysReturned(t *testing.T) {
	sc := writeScenarios[0] // the node "budget-" with two leaves, one free edge "budget-c"
	type env struct {
		f      *fabric.Fabric
		shared Shared
		setup  *Client
		c      *Client // the client under test: warm filter, no leaf-address cache
	}
	build := func(t *testing.T) env {
		f, shared, setup := sc.build(t, 2)
		c := NewClient(shared, f.NewClient(), Options{Filter: setup.filter})
		return env{f, shared, setup, c}
	}

	never := []struct {
		name string
		op   func(e env, c *Client) error
		cold bool // run by a client whose filter knows nothing
		// remembered: run by a client whose leaf-address cache holds the
		// landing's address and nothing else — the landing is then a READ at
		// that address, and still no CAS rides it.
		remembered bool
	}{
		{"update of a present key", func(e env, c *Client) error { _, err := c.Update([]byte("budget-a"), []byte("new")); return err }, false, false},
		{"update of an absent key", func(e env, c *Client) error { _, err := c.Update([]byte("budget-c"), []byte("new")); return err }, false, false},
		{"get", func(e env, c *Client) error { _, _, err := c.Search([]byte("budget-a")); return err }, false, false},
		{"get of an absent key", func(e env, c *Client) error { _, _, err := c.Search([]byte("budget-c")); return err }, false, false},
		{"delete", func(e env, c *Client) error { _, err := c.Delete([]byte("budget-a")); return err }, false, false},
		{"scan", func(e env, c *Client) error { _, err := c.Scan([]byte("budget-"), nil, 10); return err }, false, false},
		{"get through a remembered node address", func(e env, c *Client) error { _, _, err := c.Search([]byte("budget-a")); return err }, false, true},
		{"update through a remembered node address", func(e env, c *Client) error { _, err := c.Update([]byte("budget-a"), []byte("new")); return err }, false, true},
		{"delete through a remembered node address", func(e env, c *Client) error { _, err := c.Delete([]byte("budget-a")); return err }, false, true},
		{"scan beside a remembered node address", func(e env, c *Client) error { _, err := c.Scan([]byte("budget-"), nil, 10); return err }, false, true},
		{"insert from the root", func(e env, c *Client) error { _, err := c.Insert([]byte("budget-c"), []byte("v")); return err }, true, false},
		{"insert through a bucket with two candidates", func(e env, c *Client) error {
			strangerEntry(t, e.setup, "budget-", wire.Node256, e.shared.Root)
			_, err := c.Insert([]byte("budget-c"), []byte("v"))
			if err == nil && c.Stats().FPMismatches != 1 {
				err = fmt.Errorf("%d candidates failed the metadata check, want 1: the bucket held one candidate", c.Stats().FPMismatches)
			}
			return err
		}, false, false},
	}
	for _, tc := range never {
		t.Run("never bets/"+tc.name, func(t *testing.T) {
			e := build(t)
			landing := landingOf(t, e.setup, "budget-a", "budget-")
			c := e.c
			if tc.cold {
				c = newTestClient(e.f, e.shared, Options{})
			}
			if tc.remembered {
				c = NewClient(e.shared, e.f.NewClient(), Options{Filter: e.setup.filter, LeafCache: testLAC(0)})
				c.lac.LearnNode(c.lac.NodeHash([]byte("budget-")), len([]byte("budget-")), landing.Addr, landing.Hdr.Type)
			}
			var log batchLog
			c.eng.C.SetObserver(&log)
			// The first verb the client aims at the landing node.
			var first *fabric.Op
			e.f.Trace = func(fc *fabric.Client, op *fabric.Op) {
				if off := op.Addr.Offset() - landing.Addr.Offset(); fc == c.eng.C && first == nil &&
					op.Addr.Node() == landing.Addr.Node() && off < wire.NodeSize(landing.Hdr.Type) {
					cp := *op
					first = &cp
				}
			}
			err := tc.op(e, c)
			e.f.Trace = nil
			if err != nil {
				t.Fatal(err)
			}
			if log.bets() != 0 || c.eng.Stats().LeaseBets != 0 {
				t.Errorf("%d landing batches carried a lease CAS, %d bets counted; want 0, 0: %+v", log.bets(), c.eng.Stats().LeaseBets, log.evs)
			}
			if first != nil && first.Kind != fabric.Read {
				t.Errorf("the first verb at the landing is a %v at %v; want its READ, with no CAS ahead of it", first.Kind, first.Addr)
			}
			if st := c.Stats(); tc.remembered && (st.NodeHits != st.FilterHits || st.NodeHits != st.Searches+st.Updates+st.Deletes) {
				t.Errorf("%d of %d landings read the remembered address; want all, one per point operation", st.NodeHits, st.FilterHits)
			}
			if tc.remembered && c.HashStats().Lookups != 0 {
				t.Errorf("%d table lookups beside a remembered address, want 0", c.HashStats().Lookups)
			}
			if len(log.evs) == 0 {
				t.Error("the operation posted no batch; the case exercises nothing")
			}
			if w := leaseWordOf(t, e.setup, landing); w != 0 {
				t.Errorf("landing's lease word = %#x after the operation, want 0", w)
			}
		})
	}

	returned := []struct {
		name string
		// prepare returns the node the put's bet lands on, and the client to
		// run the put when it is not the environment's.
		prepare func(t *testing.T, e env) (*rart.Node, *Client)
		key     string
		note    string
		check   func(t *testing.T, e env)
	}{
		{"key exists, updated in place", func(t *testing.T, e env) (*rart.Node, *Client) {
			return landingOf(t, e.setup, "budget-a", "budget-"), nil
		}, "budget-a", "key exists", nil},
		{"walk goes below the landing", func(t *testing.T, e env) (*rart.Node, *Client) {
			// "budget-ax" grows the node "budget-a" under "budget-"; the
			// client under test knows only the upper one.
			if _, err := e.setup.Insert([]byte("budget-ax"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			private := NewFilterCache(1<<12, 3)
			private.Insert(PrefixFilterHash([]byte("budget-")))
			c := NewClient(e.shared, e.f.NewClient(), Options{Filter: private})
			return landingOf(t, c, "budget-ay", "budget-"), c
		}, "budget-ay", "walk goes below the landing", nil},
		{"candidate fails the metadata check", func(t *testing.T, e env) (*rart.Node, *Client) {
			// The filter claims "budgeX" and its bucket names, under that
			// prefix's fingerprint, the node of "budget-": the bet takes a
			// stranger's lease.
			n := landingOf(t, e.setup, "budget-a", "budget-")
			strangerEntry(t, e.c, "budgeX", n.Hdr.Type, n.Addr)
			return n, nil
		}, "budgeXY", "not the prefix's node", func(t *testing.T, e env) {
			if e.c.Stats().FPMismatches != 1 || e.c.Stats().FalsePositives == 0 {
				t.Errorf("%d metadata mismatches, %d false positives; want 1 and some", e.c.Stats().FPMismatches, e.c.Stats().FalsePositives)
			}
		}},
		{"landing is retired", func(t *testing.T, e env) (*rart.Node, *Client) {
			n := plantImpostor(t, e.c, []byte("budgeX"), 'Y', wire.Slot{Leaf: true, Addr: leafAddrOf(t, e.setup, []byte("budget-a"))})
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], wire.WithStatus(n.HdrWord, wire.StatusInvalid))
			if err := e.c.eng.C.Write(n.Addr, word[:]); err != nil {
				t.Fatal(err)
			}
			return n, nil
		}, "budgeXY", "landing retired", func(t *testing.T, e env) {
			if e.c.Stats().StaleEntries != 1 {
				t.Errorf("%d stale entries removed, want 1", e.c.Stats().StaleEntries)
			}
		}},
	}
	for _, tc := range returned {
		t.Run("returned/"+tc.name, func(t *testing.T) {
			e := build(t)
			landing, c := tc.prepare(t, e)
			if c != nil {
				e.c = c
			}
			rec := obs.NewRecorder()
			rec.Begin("put", e.c.eng.C.Clock())
			e.c.SetRecorder(rec)
			var log batchLog
			e.c.eng.C.SetObserver(obs.Tee{A: &log, B: rec})
			if _, err := e.c.Insert([]byte(tc.key), []byte("victim")); err != nil {
				t.Fatal(err)
			}
			e.c.eng.C.SetObserver(nil)
			if st := e.c.eng.Stats(); st.LeaseBets == 0 || st.LeaseBetsLost != 0 || st.LeaseBetsReturned != 1 {
				t.Errorf("bets %d, lost %d, returned %d; want some, 0, 1", st.LeaseBets, st.LeaseBetsLost, st.LeaseBetsReturned)
			}
			// The release is the batch right behind the one that showed the
			// lease to be useless: the landing itself, or the leaf read.
			for i, ev := range log.evs {
				if ev.Stage != fabric.StageUnlock {
					continue
				}
				if prev := log.evs[i-1].Stage; prev != fabric.StageLock && prev != fabric.StageLeafRead {
					t.Errorf("the lease went back behind a %v batch: %+v", prev, log.evs)
				}
			}
			if !strings.Contains(rec.Trace().Format(), "lease bet returned: ") || !strings.Contains(rec.Trace().Format(), tc.note) {
				t.Errorf("put trace lacks the note \"lease bet returned: …%s…\":\n%s", tc.note, rec.Trace().Format())
			}
			if w := leaseWordOf(t, e.setup, landing); w != 0 {
				t.Errorf("landing's lease word = %#x after the put, want 0", w)
			}
			if tc.check != nil {
				tc.check(t, e)
			}
			warmSearch(t, newTestClient(e.f, e.shared, Options{}), []byte(tc.key), []byte("victim"))
			writeScenario{setup: sc.setup, key: tc.key}.checkReadable(t, e.f, e.shared, tc.name)
		})
	}

	// A fault on the fused batch itself: a transient ahead of the CAS executed
	// nothing, one behind it took the lease and lost the READ, a lost
	// completion took it and hides that it did. Whichever it was, the put
	// restarts, acks, and leaves no lease behind — behind the table read of a
	// first touch, and as the put's first batch at a remembered address.
	for _, remembered := range []bool{false, true} {
		name := "returned/fused batch faults"
		if remembered {
			name += " at a remembered address"
		}
		t.Run(name, func(t *testing.T) {
			for _, point := range []struct {
				at    uint64
				fault error
				cut   string
			}{
				{0, fabric.ErrTransient, "lock after verb 0"},
				{1, fabric.ErrTransient, "lock after verb 1"},
				{0, fabric.ErrTimeout, "lock after verb 2"},
			} {
				f, shared, setup := sc.build(t, 2)
				landing := landingOf(t, setup, sc.key, "budget-")
				victim := sc.victim(t, f, shared, setup, true)
				// Slabs and directory caches first, so the put's first batch is
				// its hash read and its second the landing; the insert also
				// teaches the victim where the landing lives.
				if _, err := victim.Insert([]byte("budget-+"), []byte("v")); err != nil {
					t.Fatal(err)
				}
				if remembered {
					victim.eng.C.FailAt(point.at, point.fault) // the landing is the put's first batch
				} else {
					victim.lac.Reset()
					// Aimed while the hash read executes: the landing is next.
					f.Trace = func(c *fabric.Client, _ *fabric.Op) {
						if c == victim.eng.C {
							f.Trace = nil
							c.FailAt(point.at, point.fault)
						}
					}
				}
				var log batchLog
				victim.eng.C.SetObserver(&log)
				restarts := victim.Stats().Restarts
				if _, err := victim.Insert([]byte(sc.key), []byte("victim")); err != nil {
					t.Fatalf("%s: victim put: %v", point.cut, err)
				}
				cut := ""
				for _, ev := range log.evs {
					if ev.Err != nil && cut == "" {
						cut = fmt.Sprintf("%v after verb %d", ev.Stage, ev.Verbs)
					}
				}
				if cut != point.cut {
					t.Fatalf("the fault hit %q, want %q", cut, point.cut)
				}
				if victim.Stats().Restarts != restarts+1 {
					t.Errorf("%s: %d restarts, want 1", cut, victim.Stats().Restarts-restarts)
				}
				if w := leaseWordOf(t, setup, landing); w != 0 {
					t.Errorf("%s: landing's lease word = %#x after the put, want 0", cut, w)
				}
				check := newTestClient(f, shared, Options{})
				warmSearch(t, check, []byte(sc.key), []byte("victim"))
				clock0 := check.eng.C.Clock()
				if _, err := check.Insert([]byte("budget-~"), []byte("next")); err != nil {
					t.Fatal(err)
				}
				if dt := check.eng.C.Clock() - clock0; dt > 100_000_000 || check.eng.Stats().LockSteals != 0 {
					t.Errorf("%s: the next writer took %d ps and stole %d leases; a lease was left held", cut, dt, check.eng.Stats().LockSteals)
				}
			}
		})
	}
}

// TestLeasedCommitIsOneBatch: the insert whose landing bet won commits in one
// batch, in this order — the leaf's WRITE, the slot's WRITE, the lease's
// release — though the leaf lives on another memory node than the slot: the
// slot must never name an unwritten leaf, and a batch executes in posting
// order over all its targets (DESIGN.md §5.1).
func TestLeasedCommitIsOneBatch(t *testing.T) {
	sc := writeScenarios[0]
	f, shared, setup := sc.build(t, 3)
	landing := landingOf(t, setup, sc.key, "budget-")
	// A free edge whose leaf is homed on another node than its parent.
	key := ""
	for b := byte('c'); b <= 'z' && key == ""; b++ {
		if k := "budget-" + string(b); setup.eng.LeafHome([]byte(k)) != landing.Addr.Node() {
			key = k
		}
	}
	if key == "" {
		t.Fatal("every free edge's leaf is homed on the landing's node")
	}
	c := NewClient(shared, f.NewClient(), Options{Filter: setup.filter, LeafCache: testLAC(0)})
	// Allocator slabs on every node, then the directory caches.
	warmSlabs(t, c)
	if _, err := c.Insert([]byte("budget-+"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var log batchLog
	var verbs []fabric.Op
	c.eng.C.SetObserver(&log)
	f.Trace = func(fc *fabric.Client, op *fabric.Op) {
		if fc == c.eng.C {
			verbs = append(verbs, *op)
		}
	}
	_, err := c.Insert([]byte(key), []byte("v"))
	f.Trace = nil
	c.eng.C.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, ev := range log.evs {
		stages = append(stages, fmt.Sprintf("%v/%d", ev.Stage, ev.Verbs))
	}
	// The landing's address is remembered (the insert above walked through
	// it): lock‖read, commit — the whole put.
	if fmt.Sprint(stages) != "[lock/2 install/3]" {
		t.Fatalf("the insert's batches = %v, want [lock/2 install/3]", stages)
	}
	commit := verbs[len(verbs)-3:]
	leaf, slot, unlock := commit[0], commit[1], commit[2]
	if leaf.Kind != fabric.Write || leaf.Addr.Node() == landing.Addr.Node() || len(leaf.Data) < wire.LeafUnit {
		t.Errorf("first verb = %v of %d bytes at %v; want the leaf's WRITE, off node %d", leaf.Kind, len(leaf.Data), leaf.Addr, landing.Addr.Node())
	}
	if slot.Kind != fabric.Write || len(slot.Data) != 8 || slot.Addr.Node() != landing.Addr.Node() ||
		wire.DecodeSlot(binary.LittleEndian.Uint64(slot.Data)).Addr != leaf.Addr {
		t.Errorf("second verb = %v of %d bytes at %v; want the WRITE of the slot word naming the leaf at %v", slot.Kind, len(slot.Data), slot.Addr, leaf.Addr)
	}
	if unlock.Kind != fabric.CAS || unlock.Addr != landing.LeaseAddr() || unlock.Desired != 0 || unlock.Old != unlock.Expect {
		t.Errorf("third verb = %v at %v, %#x → %#x, saw %#x; want the winning release of the lease at %v",
			unlock.Kind, unlock.Addr, unlock.Expect, unlock.Desired, unlock.Old, landing.LeaseAddr())
	}
	warmSearch(t, newTestClient(f, shared, Options{}), []byte(key), []byte("v"))
}
