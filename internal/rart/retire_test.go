package rart

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// leafCAS accepts the park behind a lock CAS on the leaf at addr that won
// (won) or lost (!won).
func leafCAS(addr mem.Addr, won bool) func(fabrictest.Step) bool {
	return func(s fabrictest.Step) bool {
		return s.Op.Kind == fabric.CAS && s.Op.Addr == addr && (s.Op.Old == s.Op.Expect) == won &&
			wire.DecodeLeafHeader(s.Op.Desired).Status == wire.StatusLocked
	}
}

// retirers are the two writes that take a leaf off the tree, each with the
// value the key holds once it acknowledged (nil: absent).
var retirers = []struct {
	name  string
	write func(e *Engine, start *Node, key []byte) error
	want  []byte
}{
	{"delete", func(e *Engine, start *Node, key []byte) error {
		_, err := e.DeleteFrom(start, key, NopHooks{})
		return err
	}, nil},
	{"out-of-place update", func(e *Engine, start *Node, key []byte) error {
		_, err := e.PutFrom(start, key, bytes.Repeat([]byte("g"), 700), PutUpsert, NopHooks{})
		return err
	}, bytes.Repeat([]byte("g"), 700)},
}

// TestRetireWaitsForInPlaceHolder: a write that retires a leaf never lands
// its retirement over a live in-place updater's lock. The schedule: the rival
// reads the leaf, the holder's lock CAS runs, the rival runs, the holder's
// releasing WRITE lands. Were the retirement a plain header WRITE, the
// holder's WRITE would make the retired leaf Idle again, with its value, at an
// address leaf-address caches still hold, and SpecReadLeaf would call that
// image stable while the tree names the rival's leaf, or nothing. The rival's
// leaf CAS rides its lock batch and loses to the holder; the picker returns
// to the holder there, and the rival's retry retires the leaf the holder
// released.
func TestRetireWaitsForInPlaceHolder(t *testing.T) {
	key := []byte("lease-a")
	for _, rt := range retirers {
		t.Run(rt.name, func(t *testing.T) {
			f, ring, root := leaseCluster(t)
			rival, holder, check := engineOn(f, ring), engineOn(f, ring), engineOn(f, ring)
			leaf, err := check.SearchFrom(root(check), key, NopHooks{})
			if err != nil || leaf == nil {
				t.Fatalf("search = %v, %v", leaf, err)
			}
			script := &fabrictest.Script{Turns: []fabrictest.Turn{
				{Proc: 0, Until: func(s fabrictest.Step) bool { return s.Op.Kind == fabric.Read && s.Op.Addr == leaf.Addr }},
				{Proc: 1, Until: leafCAS(leaf.Addr, true)},
				{Proc: 0, Until: leafCAS(leaf.Addr, false)},
				{Proc: 1},
			}}
			var rerr, herr error
			fabrictest.Run(f, script, fabrictest.Proc{C: rival.C, Fn: func() {
				rerr = rival.Retry(rt.name, key, func() error { return rt.write(rival, root(rival), key) })
			}}, fabrictest.Proc{C: holder.C, Fn: func() { herr = holder.updateLeafInPlace(leaf, LeafLock{}, []byte("h"), viaOf(root(check), key)) }})
			if rerr != nil || herr != nil {
				t.Fatalf("rival = %v, holder = %v; want both acknowledged", rerr, herr)
			}
			old, stable, err := check.SpecReadLeaf(leaf.Addr, leaf.Units, key)
			if err != nil || stable && old.Status != wire.StatusInvalid {
				t.Errorf("old address reads %v %q (stable %v, %v) after both acks; want it retired", old.Status, old.Value, stable, err)
			}
			got, err := check.SearchFrom(root(check), key, NopHooks{})
			if err != nil || (got != nil) != (rt.want != nil) || got != nil && !bytes.Equal(got.Value, rt.want) {
				t.Errorf("the tree reads %+v, %v; want %.10q", got, err, rt.want)
			}
			for i, turn := range script.Turns[:3] {
				if turn.At == nil {
					t.Errorf("turn %d never ended where the schedule aims it", i)
				}
			}
		})
	}
}

// viaOf is where a walk that ends in n finds key's leaf.
func viaOf(n *Node, key []byte) Via { return Via{n.Addr, n.edgeOf(key).addr} }

// fsck runs the index check on the tree under r through a fresh client of f
// and fails t on every finding but a crashed client's lock: such a lock stays
// until a waiter takes it (docs/failure-model.md §3).
func fsck(t *testing.T, f *fabric.Fabric, r *Node, what string) {
	t.Helper()
	for _, fd := range NewEngine(f.NewClient(), nil, nil, Config{}).Fsck(r.Addr).Failures(CrashedLock) {
		t.Errorf("%s: fsck: %v", what, fd)
	}
}

// interruptedDelete builds a tree holding k/a, k/b and k/c, each with value
// "v", and runs a delete of k/b under cut, a crash (fabrictest.Cuts): the
// deleter holds whatever its cut left held, and the fabric's crash record
// names it. It checks the tree at once — no slot names an Invalid leaf,
// whether the cut fell before the commit or after it — and returns the
// cluster.
func interruptedDelete(t *testing.T, cut *fabrictest.Cut) (*fabric.Fabric, *consistenthash.Ring, func(*Engine) *Node) {
	t.Helper()
	f, ring, root := scanCluster(t)
	clean := engineOn(f, ring)
	putAll(t, clean, root, "v", "k/a", "k/b", "k/c")
	victim, start := NewEngine(f.NewClient(), clean.Alloc, ring, Config{}), root(clean)
	var err error
	fabrictest.Run(f, cut, fabrictest.Proc{C: victim.C, Fn: func() { _, err = victim.DeleteFrom(start, []byte("k/b"), NopHooks{}) }})
	if err != nil && !errors.Is(err, fabric.ErrClientCrashed) {
		t.Fatalf("delete cut at verb %d: %v; want the crash", cut.K, err)
	}
	check := engineOn(f, ring)
	fsck(t, f, root(check), fmt.Sprintf("delete cut at verb %d", cut.K))
	return f, ring, root
}

// TestRetireCutAtEveryVerb aims a crash, and then a transient, at every verb
// of a delete and of an out-of-place update — the walk, the lock batch that
// carries the leaf's CAS, the commit that swings the slot and retires the
// leaf. Whatever the cut, the tree names no Invalid leaf, no live client is
// left holding a lock, and the key reads what was acknowledged: the new
// outcome after an ack, the old value or the new outcome after an error.
func TestRetireCutAtEveryVerb(t *testing.T) {
	key, keys := []byte("lease-b"), []string{"lease-a", "lease-b", "lease-c"}
	for _, rt := range retirers {
		for _, fault := range []error{fabric.ErrClientCrashed, fabric.ErrTransient} {
			t.Run(rt.name+"/"+map[error]string{fabric.ErrClientCrashed: "crash", fabric.ErrTransient: "transient"}[fault], func(t *testing.T) {
				fabrictest.Cuts(fault, func(cut *fabrictest.Cut) {
					f, ring, root := leaseCluster(t)
					clean := engineOn(f, ring)
					putAll(t, clean, root, "v", keys...)
					victim, start := NewEngine(f.NewClient(), clean.Alloc, ring, Config{}), root(clean)
					var err error
					fabrictest.Run(f, cut, fabrictest.Proc{C: victim.C, Fn: func() { err = rt.write(victim, start, key) }})
					what := fmt.Sprintf("cut at verb %d: %v", cut.K, err)
					if err != nil && !errors.Is(err, fault) {
						t.Fatalf("%s: want the aimed fault", what)
					}
					check := engineOn(f, ring)
					fsck(t, f, root(check), what)
					got, serr := check.SearchFrom(root(check), key, NopHooks{})
					switch {
					case serr != nil:
						t.Fatalf("%s: search: %v", what, serr)
					case (got == nil) == (rt.want == nil) && (got == nil || bytes.Equal(got.Value, rt.want)):
					case err != nil && got != nil && string(got.Value) == "v":
					default:
						t.Errorf("%s: the key reads %+v", what, got)
					}
				})
			})
		}
	}
}

// TestCrashBeforeInvalidLeavesLeafLocked: a retiring write that crashes
// between its commit's slot WRITE and its Invalid WRITE leaves the leaf off
// the tree, Locked by a dead owner, and nobody breaks that lock. A search, an
// update through the tree and an in-place update, each from a pre-retire image
// whose slot still names the leaf, read the node's header and that slot again,
// find the slot moved or the node retired, and restart; a cached read of the
// old address finds nothing it trusts. Broken back to Idle, the leaf would
// serve its old value to every leaf-address cache holding the address, while
// the tree says otherwise. The stale image is of the root, or of a Node4 a
// type switch retired before the retire ran, whose slot names the leaf still.
func TestCrashBeforeInvalidLeavesLeafLocked(t *testing.T) {
	trees := []struct {
		name string
		key  []byte
		// build fills the tree through e and returns the stale image.
		build func(t *testing.T, e *Engine, root func(*Engine) *Node) *Node
	}{
		{"on the root", []byte("k/b"), func(t *testing.T, e *Engine, root func(*Engine) *Node) *Node {
			putAll(t, e, root, "v", "k/b")
			return root(e)
		}},
		{"under a retired node", []byte("k/b"), func(t *testing.T, e *Engine, root func(*Engine) *Node) *Node {
			putAll(t, e, root, "v", "k/a", "k/b", "k/c")
			slot := root(e).edgeOf([]byte("k/b")).slot
			stale, err := e.ReadNode(slot.Addr, slot.ChildType)
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, e, root, "v", "k/d", "k/e")
			if now, err := e.ReadNode(stale.Addr, stale.Hdr.Type); err != nil || now.Hdr.Status != wire.StatusInvalid {
				t.Fatalf("the Node4 %v after two more inserts: %v; want it retired by a type switch", stale.Addr, err)
			}
			return stale
		}},
	}
	for _, tree := range trees {
		for _, rt := range retirers {
			t.Run(tree.name+"/"+rt.name, func(t *testing.T) {
				key, cuts := tree.key, 0
				// The crash that falls between the commit's slot WRITE and its
				// Invalid WRITE: of the retire batch, the one-word slot WRITE
				// executed.
				fabrictest.Cuts(fabric.ErrClientCrashed, func(cut *fabrictest.Cut) {
					f, ring, root := scanCluster(t)
					check := engineOn(f, ring)
					stale := tree.build(t, check, root)
					leaf, err := check.SearchFrom(root(check), key, NopHooks{})
					if err != nil || leaf == nil {
						t.Fatalf("search = %v, %v", leaf, err)
					}
					victim := NewEngine(f.NewClient(), check.Alloc, ring, Config{})
					start := root(victim)
					fabrictest.Run(f, cut, fabrictest.Proc{C: victim.C, Fn: func() { err = rt.write(victim, start, key) }})
					if (err != nil) != (cut.At != nil) || err != nil && !errors.Is(err, fabric.ErrClientCrashed) {
						t.Fatalf("retire cut at verb %d: %v", cut.K, err)
					}
					if at := cut.At; at == nil || at.Op.Kind != fabric.Write || len(at.Op.Data) != 8 || cut.Batch.Verbs != 1 {
						return
					}
					cuts++
					locked := func(what string) {
						w, err := check.C.ReadUint64(leaf.Addr)
						if err != nil || wire.DecodeLeafHeader(w).Status != wire.StatusLocked {
							t.Errorf("%s: the old leaf's header is %v, %v; want the dead retirer's lock", what, wire.DecodeLeafHeader(w).Status, err)
						}
					}
					locked("after the crash")
					if got, err := check.SearchFrom(stale, key, NopHooks{}); !errors.Is(err, ErrRestart) {
						t.Errorf("search through the stale image = %+v, %v; want a restart", got, err)
					}
					if _, err := check.PutFrom(stale, key, []byte("u"), PutUpdateOnly, NopHooks{}); !errors.Is(err, ErrRestart) {
						t.Errorf("update through the stale image = %v; want a restart", err)
					}
					if err := check.updateLeafInPlace(leaf, LeafLock{}, []byte("u"), viaOf(stale, key)); !errors.Is(err, ErrRestart) {
						t.Errorf("in-place update of the old leaf = %v; want a restart", err)
					}
					if old, stable, err := check.SpecReadLeaf(leaf.Addr, leaf.Units, key); err != nil || stable {
						t.Errorf("cached read of the old address = %v %q (stable %v, %v); want nothing to trust", old.Status, old.Value, stable, err)
					}
					locked("after the stale readers")
					if n := check.Stats().LeafLockBreaks; n != 0 {
						t.Errorf("%d lock breaks; want none", n)
					}
					got, err := check.SearchFrom(root(check), key, NopHooks{})
					if err != nil || (got != nil) != (rt.want != nil) || got != nil && !bytes.Equal(got.Value, rt.want) {
						t.Errorf("the tree reads %+v, %v; want %.10q", got, err, rt.want)
					}
					fsck(t, f, root(check), "after the crash")
				})
				if cuts != 1 {
					t.Errorf("%d crash cuts fell between the slot WRITE and the Invalid WRITE; want one", cuts)
				}
			})
		}
	}
}

// TestRetirerPollsHoldingNoLeaf: locks are taken node before leaf. A retiring
// write whose lock batch wins the leaf but finds the node leased gives the
// leaf back before it polls, so an in-place update of that leaf finishes while
// the retirer waits for a node holder the schedule keeps parked; once the
// holder is done, the retirer takes the leaf again and retires it. Kept
// through the polls, the leaf would have held the update until its budget ran
// out.
func TestRetirerPollsHoldingNoLeaf(t *testing.T) {
	for _, rt := range retirers {
		t.Run(rt.name, func(t *testing.T) {
			key := []byte("lease-a")
			f, ring, root := leaseCluster(t)
			holder, retirer, updater, check := engineOn(f, ring), engineOn(f, ring), engineOn(f, ring), engineOn(f, ring)
			leaf, err := check.SearchFrom(root(check), key, NopHooks{})
			if err != nil || leaf == nil {
				t.Fatalf("search = %v, %v", leaf, err)
			}
			rootAddr := root(check).Addr
			leased, sawLeafCAS := false, false
			script := &fabrictest.Script{Turns: []fabrictest.Turn{
				// The holder's insert under the root, parked behind its lease.
				{Proc: 0, Until: func(s fabrictest.Step) bool {
					leased = leased || s.Op.Kind == fabric.CAS && s.Op.Addr == rootAddr.Add(wire.LeaseOff) && s.Op.Old == s.Op.Expect
					return leased && s.BatchEnd
				}},
				// The retirer up to its first poll of the root.
				{Proc: 1, Until: func(s fabrictest.Step) bool {
					sawLeafCAS = sawLeafCAS || s.Op.Kind == fabric.CAS && s.Op.Addr == leaf.Addr
					return sawLeafCAS && s.Op.Kind == fabric.Read && s.Op.Addr == rootAddr && s.BatchEnd
				}},
				{Proc: 2},
				{Proc: 0},
			}}
			var herr, rerr, uerr error
			fabrictest.Run(f, script, fabrictest.Proc{C: holder.C, Fn: func() {
				_, herr = holder.PutFrom(root(holder), []byte("zebra"), []byte("z"), PutUpsert, NopHooks{})
			}}, fabrictest.Proc{C: retirer.C, Fn: func() {
				rerr = retirer.Retry(rt.name, key, func() error { return rt.write(retirer, root(retirer), key) })
			}}, fabrictest.Proc{C: updater.C, Fn: func() {
				_, uerr = updater.PutFrom(root(updater), key, []byte("u"), PutUpsert, NopHooks{})
			}})
			for i, turn := range script.Turns[:2] {
				if turn.At == nil {
					t.Fatalf("turn %d never ended where the schedule aims it", i)
				}
			}
			if herr != nil || uerr != nil || rerr != nil {
				t.Fatalf("holder = %v, in-place update = %v, retirer = %v; want all three acknowledged", herr, uerr, rerr)
			}
			got, err := check.SearchFrom(root(check), key, NopHooks{})
			if err != nil || (got != nil) != (rt.want != nil) || got != nil && !bytes.Equal(got.Value, rt.want) {
				t.Errorf("the key reads %+v, %v after the retirer; want %.10q", got, err, rt.want)
			}
		})
	}
}

// TestRelocationToKilledTargetAborts: a relocation's commit carries the
// copy's WRITE to the target memory node ahead of the slot WRITE. A target
// killed between the lock batch and the commit rejects the whole batch, so
// nothing committed: the relocation aborts and gives the node's lease and the
// leaf's lock back, and the leaf stays where it was, whole and writable.
func TestRelocationToKilledTargetAborts(t *testing.T) {
	key := []byte("lease-a")
	f, ring, root := leaseCluster(t)
	relocator, check := engineOn(f, ring), engineOn(f, ring)
	leaf, err := check.SearchFrom(root(check), key, NopHooks{})
	if err != nil || leaf == nil {
		t.Fatalf("search = %v, %v", leaf, err)
	}
	start := root(check)
	var target mem.NodeID
	for _, n := range ring.Nodes() {
		if n != leaf.Addr.Node() && n != start.Addr.Node() {
			target = n
		}
	}
	// A slab on the target already: the copy's address costs no round trip.
	if _, err := relocator.Alloc.Alloc(target, mem.ClassLeaf, wire.LeafUnit); err != nil {
		t.Fatal(err)
	}
	locked := false
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool {
		locked = locked || leafCAS(leaf.Addr, true)(s)
		return locked && s.BatchEnd
	})
	var moved bool
	fabrictest.Run(f, sw, fabrictest.Proc{C: relocator.C, Fn: func() { moved, err = relocator.RelocateLeaf(start, leaf, target) }},
		fabrictest.Proc{Fn: func() { f.KillNode(target) }})
	if sw.Turns[0].At == nil || moved || !errors.Is(err, fabric.ErrNodeKilled) {
		t.Fatalf("relocation = %v, %v (kill at %+v); want the kill, behind the lock batch", moved, err, sw.Turns[0].At)
	}
	fsck(t, f, root(check), "after the aborted relocation")
	if got, err := check.SearchFrom(root(check), key, NopHooks{}); err != nil || got == nil || got.Addr != leaf.Addr || got.Status != wire.StatusIdle {
		t.Fatalf("the key reads %+v, %v; want its leaf in place, Idle", got, err)
	}
	putUnderRootQuickly(t, f, ring, root, "after the aborted relocation")
}
