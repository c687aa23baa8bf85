package rart

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// testEngine builds a one-node cluster with a root, returning the engine
// and a reader for the root node.
func testEngine(t *testing.T, cfg Config) (*Engine, func() *Node) {
	t.Helper()
	f := fabric.New(fabric.InstantConfig())
	node := f.AddNode(64 << 20)
	ring := consistenthash.New([]mem.NodeID{node}, 8)
	boot := mem.NewAllocator(f.Regions(), 0)
	rootAddr, err := BootstrapRoot(f.Region(node), boot, node)
	if err != nil {
		t.Fatal(err)
	}
	c := f.NewClient()
	e := NewEngine(c, mem.NewAllocator(c, 0), ring, cfg)
	readRoot := func() *Node {
		n, err := e.ReadNode(rootAddr, wire.Node256)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return e, readRoot
}

func mustPut(t *testing.T, e *Engine, root func() *Node, key, val string) {
	t.Helper()
	for i := 0; i < 32; i++ {
		_, err := e.PutFrom(root(), []byte(key), []byte(val), PutUpsert, NopHooks{})
		if err == nil {
			return
		}
		if !errors.Is(err, ErrRestart) {
			t.Fatalf("put %q: %v", key, err)
		}
	}
	t.Fatalf("put %q: retries exhausted", key)
}

func mustGet(t *testing.T, e *Engine, root func() *Node, key string) (string, bool) {
	t.Helper()
	leaf, err := e.SearchFrom(root(), []byte(key), NopHooks{})
	if err != nil {
		t.Fatalf("search %q: %v", key, err)
	}
	if leaf == nil || !bytes.Equal(leaf.Key, []byte(key)) {
		return "", false
	}
	return string(leaf.Value), true
}

func TestEnginePutSearchDirect(t *testing.T) {
	e, root := testEngine(t, Config{})
	mustPut(t, e, root, "alpha", "1")
	mustPut(t, e, root, "alps", "2")
	mustPut(t, e, root, "al", "3")
	for k, want := range map[string]string{"alpha": "1", "alps": "2", "al": "3"} {
		got, ok := mustGet(t, e, root, k)
		if !ok || got != want {
			t.Errorf("get %q = %q,%v", k, got, ok)
		}
	}
	if _, ok := mustGet(t, e, root, "alp"); ok {
		t.Error("phantom intermediate prefix")
	}
}

func TestEngineLongChainConversion(t *testing.T) {
	// A shared prefix much longer than MaxPartial forces convertLeaf to
	// build a chain of inner nodes, each with a new full prefix.
	e, root := testEngine(t, Config{})
	long := string(bytes.Repeat([]byte("p"), 3*wire.MaxPartial+5))
	var newPrefixes [][]byte
	h := recordingHooks{onNew: func(p []byte, n *Node) { newPrefixes = append(newPrefixes, append([]byte(nil), p...)) }}

	if _, err := e.PutFrom(root(), []byte(long+"A"), []byte("a"), PutUpsert, h); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PutFrom(root(), []byte(long+"B"), []byte("b"), PutUpsert, h); err != nil {
		t.Fatal(err)
	}
	if len(newPrefixes) < 3 {
		t.Errorf("expected a chain of ≥3 new inner nodes for a %d-byte shared prefix, got %d",
			len(long), len(newPrefixes))
	}
	// Every chain node's partial must respect MaxPartial.
	for _, p := range newPrefixes {
		n, err := e.SearchChainNode(root(), p)
		if err != nil {
			t.Fatalf("walking to chain node %q: %v", p, err)
		}
		if n == nil {
			t.Fatalf("chain node %q unreachable", p)
		}
		if int(n.Hdr.PartialLen) > wire.MaxPartial {
			t.Errorf("chain node partial %d exceeds max", n.Hdr.PartialLen)
		}
	}
	for _, k := range []string{long + "A", long + "B"} {
		if _, ok := mustGet(t, e, root, k); !ok {
			t.Errorf("key %q lost", k)
		}
	}
}

type recordingHooks struct {
	onNew    func(prefix []byte, n *Node)
	onSwitch func(prefix []byte, old, grown *Node)
}

// Plan implements Hooks: the callbacks fire at Publish, once per publication.
func (h recordingHooks) Plan(pubs []Publication) (Publisher, error) {
	return recordingPublisher{h: h, pubs: append([]Publication(nil), pubs...)}, nil
}

type recordingPublisher struct {
	NopPublisher
	h    recordingHooks
	pubs []Publication
}

func (p recordingPublisher) Publish([]fabric.Op) error {
	for _, pub := range p.pubs {
		switch {
		case pub.Old != nil && p.h.onSwitch != nil:
			p.h.onSwitch(pub.Prefix, pub.Old, pub.Node)
		case pub.Old == nil && p.h.onNew != nil:
			p.h.onNew(pub.Prefix, pub.Node)
		}
	}
	return nil
}

func (recordingHooks) SawNode([]byte, *Node) {}

func (recordingHooks) UpdatedLeaf([]byte, mem.Addr, uint8) {}

// SearchChainNode walks from start to the inner node with the exact full
// prefix, for white-box tests.
func (e *Engine) SearchChainNode(start *Node, prefix []byte) (*Node, error) {
	n := start
	for {
		if int(n.Hdr.Depth) == len(prefix) {
			return n, nil
		}
		if int(n.Hdr.Depth) > len(prefix) {
			return nil, nil
		}
		slot, _, ok := n.Child(prefix[n.Hdr.Depth])
		if !ok || slot.Leaf {
			return nil, nil
		}
		child, err := e.ReadNode(slot.Addr, slot.ChildType)
		if err != nil {
			return nil, err
		}
		n = child
	}
}

func TestEngineTypeSwitchHooks(t *testing.T) {
	e, root := testEngine(t, Config{})
	var switches []string
	h := recordingHooks{onSwitch: func(p []byte, old, grown *Node) {
		switches = append(switches, fmt.Sprintf("%q:%v→%v", p, old.Hdr.Type, grown.Hdr.Type))
		if old.Addr == grown.Addr {
			t.Error("type switch did not move the node")
		}
		if old.Hdr.PrefixHash != grown.Hdr.PrefixHash {
			t.Error("type switch changed the prefix hash")
		}
	}}
	for i := 0; i < 60; i++ {
		k := []byte{'t', byte(i), 'z'}
		if _, err := e.PutFrom(root(), k, []byte{1}, PutUpsert, h); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// 60 children force N4→N16→N48→N256.
	if len(switches) != 3 {
		t.Errorf("switches = %v, want 3", switches)
	}
	// The retired originals must be Invalid.
	for i := 0; i < 60; i++ {
		if _, ok := mustGet(t, e, root, string([]byte{'t', byte(i), 'z'})); !ok {
			t.Fatalf("key %d lost across type switches", i)
		}
	}
}

func TestEnginePrealloc256NeverSwitches(t *testing.T) {
	e, root := testEngine(t, Config{Prealloc256: true})
	h := recordingHooks{onSwitch: func(p []byte, old, grown *Node) {
		t.Errorf("type switch under Prealloc256: %q", p)
	}}
	for i := 0; i < 256; i++ {
		k := []byte{'p', byte(i), 'z'}
		if _, err := e.PutFrom(root(), k, []byte{1}, PutUpsert, h); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 256; i++ {
		if _, ok := mustGet(t, e, root, string([]byte{'p', byte(i), 'z'})); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestEngineModes(t *testing.T) {
	e, root := testEngine(t, Config{})
	mustPut(t, e, root, "mode", "v1")
	// UpdateOnly on a missing key must not create.
	existed, err := e.PutFrom(root(), []byte("missing"), []byte("x"), PutUpdateOnly, NopHooks{})
	if err != nil || existed {
		t.Fatalf("update-only: %v %v", existed, err)
	}
	if _, ok := mustGet(t, e, root, "missing"); ok {
		t.Error("update-only created a key")
	}
}

func TestEngineDeleteEOLKeepsChildren(t *testing.T) {
	e, root := testEngine(t, Config{})
	mustPut(t, e, root, "pre", "1")
	mustPut(t, e, root, "prefix", "2")
	mustPut(t, e, root, "preface", "3")
	ok, err := e.DeleteFrom(root(), []byte("pre"), NopHooks{})
	if err != nil || !ok {
		t.Fatalf("delete EOL: %v %v", ok, err)
	}
	if _, found := mustGet(t, e, root, "pre"); found {
		t.Error("EOL key survived delete")
	}
	for _, k := range []string{"prefix", "preface"} {
		if _, found := mustGet(t, e, root, k); !found {
			t.Errorf("%q lost after EOL delete", k)
		}
	}
}

func TestEngineNeedParentSignal(t *testing.T) {
	// A put starting from a node whose compressed path diverges from the
	// key must report ErrNeedParent when no parent is known.
	e, root := testEngine(t, Config{})
	mustPut(t, e, root, "abcdXXX1", "1")
	mustPut(t, e, root, "abcdXXX2", "2")
	// Find the inner node with prefix "abcdXXX" and use it as a jump
	// start for a key that diverges inside its coverage.
	n, err := e.SearchChainNode(root(), []byte("abcdXXX"))
	if err != nil || n == nil {
		t.Fatalf("chain node missing: %v", err)
	}
	_, err = e.PutFrom(n, []byte("abcdYYY"), []byte("x"), PutUpsert, NopHooks{})
	if !errors.Is(err, ErrNeedParent) {
		t.Errorf("divergent jump put returned %v, want ErrNeedParent", err)
	}
}

// batchLog records every doorbell batch a client posts.
type batchLog struct{ evs []fabric.BatchEvent }

func (b *batchLog) ObserveBatch(ev fabric.BatchEvent) { b.evs = append(b.evs, ev) }

// writeCost sums the batches that follow an operation's descent: everything
// but the node and leaf reads that located the edge.
func (b *batchLog) writeCost() (rts, verbs int, stages []string) {
	for _, ev := range b.evs {
		if ev.Stage == fabric.StageNodeRead || ev.Stage == fabric.StageLeafRead {
			continue
		}
		rts += int(ev.RoundTrips)
		verbs += ev.Verbs
		stages = append(stages, ev.Stage.String())
	}
	return rts, verbs, stages
}

// TestWriteBudgets pins the post-descent cost of every structural write at
// the engine level (no side structure: NopHooks), in round trips AND verbs.
// One doorbell batch per dependency level: the fresh objects ride the lock
// batch, then the commit batch(es). The verb counts are exactly the verbs
// of the one-batch-per-verb-group protocol — fusion regroups verbs, it adds
// none — so a change that splits a fused batch, or fuses by adding verbs,
// fails here.
func TestWriteBudgets(t *testing.T) {
	long := string(bytes.Repeat([]byte("p"), 2*wire.MaxPartial+5))
	cases := []struct {
		name  string
		setup []string
		key   string
		rts   int
		verbs int
		want  []string // batch stages, in order
	}{
		// W leaf + CAS,READ lock | W slot + CAS unlock
		{"fresh insert", []string{"budget-a", "budget-b"}, "budget-c", 2, 5, []string{"lock", "install"}},
		{"EOL insert", []string{"budget-a", "budget-b"}, "budget-", 2, 5, []string{"lock", "install"}},
		// W leaf + W node + CAS,READ | W slot + CAS unlock
		{"leaf conversion, chain 1", []string{"budget-a", "budget-b"}, "budget-ax", 2, 6, []string{"lock", "publish"}},
		// W leaf + 3 W node + CAS,READ | W slot + CAS unlock
		{"leaf conversion, chain 3", []string{"budget-a", "budget-b", long + "A"}, long + "B", 2, 8, []string{"lock", "publish"}},
		// W leaf + W mid + 2×(CAS,READ) | W child head + W parent slot + CAS unlock
		{"partial split", []string{"budget-a", "budget-b"}, "bud!", 2, 9, []string{"lock", "publish"}},
		// W leaf + W grown + 2×(CAS,READ) | W parent slot + W invalidate + CAS unlock
		{"type switch", []string{"budget-a", "budget-b", "budget-c", "budget-d"}, "budget-e", 2, 9, []string{"lock", "publish"}},
		// W leaf + CAS,READ + CAS leaf | W slot + W Invalid + CAS unlock: a value
		// that outgrows the leaf's units
		{"out-of-place update", []string{"budget-a", "budget-b"}, "budget-a", 2, 7, []string{"lock", "leaf-write"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := fabric.New(fabric.DefaultConfig())
			node := f.AddNode(64 << 20)
			ring := consistenthash.New([]mem.NodeID{node}, 8)
			rootAddr, err := BootstrapRoot(f.Region(node), mem.NewAllocator(f.Regions(), 0), node)
			if err != nil {
				t.Fatal(err)
			}
			c := f.NewClient()
			e := NewEngine(c, mem.NewAllocator(c, 0), ring, Config{})
			root := func() *Node {
				n, err := e.ReadNode(rootAddr, wire.Node256)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			// The setup puts also reserve the leaf and inner-node slabs, so
			// the measured put pays no allocator round trips.
			for _, k := range tc.setup {
				mustPut(t, e, root, k, "v")
			}
			start := root()
			var log batchLog
			c.SetObserver(&log)
			value := []byte("v")
			if slices.Contains(tc.setup, tc.key) {
				value = bytes.Repeat(value, 100)
			}
			if _, err := e.PutFrom(start, []byte(tc.key), value, PutUpsert, NopHooks{}); err != nil {
				t.Fatal(err)
			}
			c.SetObserver(nil)
			rts, verbs, stages := log.writeCost()
			if rts != tc.rts || verbs != tc.verbs || fmt.Sprint(stages) != fmt.Sprint(tc.want) {
				t.Errorf("post-descent cost = %d RT, %d verbs, batches %v; want %d RT, %d verbs, batches %v",
					rts, verbs, stages, tc.rts, tc.verbs, tc.want)
			}
			if st := e.Stats(); st.AbandonedObjects != 0 || st.AbandonedBytes != 0 {
				t.Errorf("uncontended put abandoned %d objects (%d bytes)", st.AbandonedObjects, st.AbandonedBytes)
			}
			for _, k := range append(tc.setup, tc.key) {
				if _, ok := mustGet(t, e, root, k); !ok {
					t.Errorf("%q unreadable after the put", k)
				}
			}
		})
	}
}
