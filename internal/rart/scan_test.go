package rart

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// scanCluster builds a three-node cluster with an empty tree rooted on node 0,
// so that the nodes and leaves of one operation live on different memory nodes.
func scanCluster(t *testing.T) (*fabric.Fabric, *consistenthash.Ring, func(*Engine) *Node) {
	t.Helper()
	f := fabric.New(fabric.DefaultConfig())
	nodes := []mem.NodeID{f.AddNode(16 << 20), f.AddNode(16 << 20), f.AddNode(16 << 20)}
	rootAddr, err := BootstrapRoot(f.Region(nodes[0]), mem.NewAllocator(f.Regions(), 0), nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	return f, consistenthash.New(nodes, 8), func(e *Engine) *Node {
		n, err := e.ReadNode(rootAddr, wire.Node256)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

func putAll(t *testing.T, e *Engine, root func(*Engine) *Node, val string, keys ...string) {
	t.Helper()
	for _, k := range keys {
		mustPut(t, e, func() *Node { return root(e) }, k, val)
	}
}

func scanKeys(kvs []KV) string {
	var ks []string
	for _, kv := range kvs {
		ks = append(ks, string(kv.Key))
	}
	return strings.Join(ks, " ")
}

// TestScanSurvivesTypeSwitch: the scanner holds a root image whose slot names
// a Node4 that a rival's insert then grows into a Node16 at a new address.
// The retired node is not the end of the subtree: the scan follows the root's
// slot to the copy.
func TestScanSurvivesTypeSwitch(t *testing.T) {
	f, ring, root := scanCluster(t)
	e, rival := engineOn(f, ring), engineOn(f, ring)
	putAll(t, e, root, "v", "k/a", "k/b", "k/c", "k/d")
	stale := root(e)
	putAll(t, rival, root, "v", "k/e")
	kvs, err := e.ScanFrom(stale, []byte("k/"), nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanKeys(kvs); got != "k/a k/b k/c k/d k/e" {
		t.Fatalf("scan across a type switch returned %q", got)
	}
	if st := e.Stats(); st.ScanReresolved != 1 {
		t.Errorf("ScanReresolved = %d, want 1", st.ScanReresolved)
	}
}

// TestScanSurvivesLeafMove: a rival's out-of-place update retires a leaf
// between the round that read its parent and the round that reads the leaf.
// The key is committed throughout, so the scan returns it — from the leaf the
// slot names now.
func TestScanSurvivesLeafMove(t *testing.T) {
	f, ring, root := scanCluster(t)
	e, rival := engineOn(f, ring), engineOn(f, ring)
	putAll(t, e, root, "v", "k/a", "k/b", "k/c", "k/d")
	big := strings.Repeat("V", 500)
	start := root(e)
	// The rival's update lands behind the scan's first round, which reads
	// node "k/".
	var kvs []KV
	var err, rerr error
	sw := fabrictest.Switch(0, func(s fabrictest.Step) bool { return s.BatchEnd && s.Stage == fabric.StageScan })
	fabrictest.Run(f, sw, fabrictest.Proc{C: e.C, Fn: func() { kvs, err = e.ScanFrom(start, []byte("k/"), nil, 0, true) }},
		fabrictest.Proc{Fn: func() { _, rerr = rival.PutFrom(root(rival), []byte("k/a"), []byte(big), PutUpsert, NopHooks{}) }})
	if err != nil || rerr != nil || sw.Turns[0].At == nil {
		t.Fatalf("scan: %v; rival update: %v, at %+v", err, rerr, sw.Turns[0].At)
	}
	if got := scanKeys(kvs); got != "k/a k/b k/c k/d" {
		t.Fatalf("scan across an out-of-place update returned %q", got)
	}
	if string(kvs[0].Value) != big {
		t.Errorf("k/a = %d-byte value, want the rival's %d bytes", len(kvs[0].Value), len(big))
	}
}

// TestScanSurvivesPartialSplit: a rival's insert splits the compressed path
// of a node the scanner's root image still points at directly. The node's
// shortened partial no longer spells the prefix it was reached through, so
// bounds must not be judged against it: the scan follows the root's slot to
// the node that took over the head of the path.
func TestScanSurvivesPartialSplit(t *testing.T) {
	f, ring, root := scanCluster(t)
	e, rival := engineOn(f, ring), engineOn(f, ring)
	putAll(t, e, root, "v", "k/abcdefa", "k/abcdefb")
	stale := root(e)
	putAll(t, rival, root, "v", "k/abX")
	kvs, err := e.ScanFrom(stale, []byte("k/"), []byte("k/~"), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanKeys(kvs); got != "k/abX k/abcdefa k/abcdefb" {
		t.Fatalf("scan across a partial split returned %q", got)
	}
}

// TestScanFinishesInterruptedDelete: a scan over a delete whose client crashed
// at any of its verbs returns k/b exactly when a search finds it — still "v"
// before the delete's commit, gone after — instead of restarting on the edge
// the cut left behind.
func TestScanFinishesInterruptedDelete(t *testing.T) {
	seen := map[string]bool{}
	fabrictest.Cuts(fabric.ErrClientCrashed, func(cut *fabrictest.Cut) {
		at := cut.K
		f, ring, root := interruptedDelete(t, cut)
		e := engineOn(f, ring)
		kvs, err := e.ScanFrom(root(e), []byte("k/"), []byte("k/~"), 0, true)
		if err != nil {
			t.Fatalf("cut at verb %d: %v", at, err)
		}
		want := "k/a k/c"
		if v, ok := mustGet(t, e, func() *Node { return root(e) }, "k/b"); ok {
			if v != "v" {
				t.Fatalf("cut at verb %d: k/b reads %q", at, v)
			}
			want = "k/a k/b k/c"
		}
		if got := scanKeys(kvs); got != want {
			t.Errorf("cut at verb %d: scan over a half-deleted key returned %q, want %q", at, got, want)
		}
		if cut.At != nil {
			seen[want] = true
		}
	})
	if len(seen) != 2 {
		t.Errorf("scans returned %v across the cuts; want cuts on both sides of the delete's commit", seen)
	}
}

// sawCounter counts the inner nodes a descent visits.
type sawCounter struct {
	NopHooks
	n *int
}

func (c sawCounter) SawNode([]byte, *Node) { *c.n++ }

// TestScanBudget pins what a range scan costs on a fixed tree of email keys.
func TestScanBudget(t *testing.T) {
	f, ring, root := scanCluster(t)
	e := engineOn(f, ring)
	keys := dataset.GenerateEmail(20_000, 1)
	for _, k := range keys {
		putAll(t, e, root, "0123456789012345678901234567890123456789012345678901234567890123", string(k))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	lo := keys[len(keys)/2]
	// The inner nodes on lo's path, root included.
	var depth int
	if _, err := e.SearchFrom(root(e), lo, sawCounter{n: &depth}); err != nil {
		t.Fatal(err)
	}

	scan := func(limit int, batched bool) (kvs []KV, st EngineStats, log batchLog) {
		t.Helper()
		start, before := root(e), e.Stats()
		e.C.SetObserver(&log)
		kvs, err := e.ScanFrom(start, lo, nil, limit, batched)
		e.C.SetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, kv := range kvs {
			if want := keys[len(keys)/2+i]; !bytes.Equal(kv.Key, want) {
				t.Fatalf("limit %d batched %v: result %d = %q, want %q", limit, batched, i, kv.Key, want)
			}
		}
		for _, ev := range log.evs {
			if ev.Stage != fabric.StageScan {
				t.Errorf("limit %d batched %v: a %v batch inside the scan", limit, batched, ev.Stage)
			}
		}
		after := e.Stats()
		st.ScanRounds = after.ScanRounds - before.ScanRounds
		st.ScanReads = after.ScanReads - before.ScanReads
		st.ScanNodeReads = after.ScanNodeReads - before.ScanNodeReads
		if int(st.ScanRounds) != len(log.evs) || after.ScanEmitted-before.ScanEmitted != uint64(len(kvs)) ||
			after.ScanReresolved != before.ScanReresolved {
			t.Errorf("limit %d batched %v: counters %+v disagree with %d batches, %d results", limit, batched, after, len(log.evs), len(kvs))
		}
		return kvs, st, log
	}

	// One doorbell batch per tree level, and a few more where the window
	// estimate fell short; what it over-fetches stays within a factor two.
	kvs, st, _ := scan(50, true)
	if len(kvs) != 50 {
		t.Fatalf("limit-50 scan returned %d keys", len(kvs))
	}
	if int(st.ScanRounds) > depth+3 {
		t.Errorf("limit-50 scan took %d rounds on a path of %d nodes, want ≤ %d", st.ScanRounds, depth, depth+3)
	}
	if int(st.ScanReads) > 2*len(kvs)+depth {
		t.Errorf("limit-50 scan fetched %d objects for %d keys on a path of %d nodes, want ≤ %d",
			st.ScanReads, len(kvs), depth, 2*len(kvs)+depth)
	}

	// Unbatched (the naive ART port) is the same loop with a window of one
	// entry: one round trip per fetched object, as many as the depth-first
	// walk it replaced paid on this tree (measured at the parent commit).
	const walkRTs = 71
	kvs, st, log := scan(50, false)
	if len(kvs) != 50 || st.ScanRounds != st.ScanReads || st.ScanReads != walkRTs {
		t.Errorf("unbatched limit-50 scan: %d keys, %d round trips, %d objects; want 50, %d, %d",
			len(kvs), st.ScanRounds, st.ScanReads, walkRTs, walkRTs)
	}
	for _, ev := range log.evs {
		if ev.Verbs != 1 {
			t.Errorf("unbatched scan posted a batch of %d verbs", ev.Verbs)
		}
	}

	// A limit-1 scan from a key in the tree walks that key's path and reads
	// its leaf, nothing beside it.
	kvs, st, _ = scan(1, true)
	if len(kvs) != 1 || st.ScanReads-st.ScanNodeReads != 1 || int(st.ScanNodeReads) != depth-1 {
		t.Errorf("limit-1 scan: %d keys, %d leaves and %d nodes fetched on a path of %d nodes below the root",
			len(kvs), st.ScanReads-st.ScanNodeReads, st.ScanNodeReads, depth-1)
	}
}

// TestScanBounds checks the prefix-free range logic — bounds carried down the
// tree as "still on lo's / hi's path" flags — against a filter over the sorted
// key set: bounds inside compressed paths, bounds that are keys, prefixes of
// keys, or absent, an EOL key first, empty ranges, every limit.
func TestScanBounds(t *testing.T) {
	e, root := testEngine(t, Config{})
	keys := []string{"a", "ab", "abc", "abcdefgh", "abcdefgz", "abd", "b", "car/long-shared-partial/x",
		"car/long-shared-partial/y", "car/long-shared-partial/y/z", "card", "d\xff", "d\xff\xff", "e"}
	for _, k := range keys {
		mustPut(t, e, root, k, "v:"+k)
	}
	bounds := append([]string{"", "abcd", "abcdefg", "abcdefgi", "abcz", "car/long", "car/long-shared-partial/",
		"car/long-shared-partial/y/", "car/m", "c", "d", "d\xff\xfe", "f", "0"}, keys...)
	for _, lo := range bounds {
		for _, hi := range bounds {
			if lo != "" && hi != "" && lo > hi {
				continue
			}
			var want []string
			for _, k := range keys {
				if k >= lo && (hi == "" || k <= hi) {
					want = append(want, k)
				}
			}
			for _, limit := range []int{0, 1, 3} {
				for _, batched := range []bool{true, false} {
					var blo, bhi []byte
					if lo != "" {
						blo = []byte(lo)
					}
					if hi != "" {
						bhi = []byte(hi)
					}
					kvs, err := e.ScanFrom(root(), blo, bhi, limit, batched)
					if err != nil {
						t.Fatal(err)
					}
					w := want
					if limit > 0 && len(w) > limit {
						w = w[:limit]
					}
					if got := scanKeys(kvs); got != strings.Join(w, " ") {
						t.Fatalf("scan [%q, %q] limit %d batched %v = %q, want %q", lo, hi, limit, batched, got, strings.Join(w, " "))
					}
					for _, kv := range kvs {
						if string(kv.Value) != "v:"+string(kv.Key) {
							t.Fatalf("scan [%q, %q]: %q = %q", lo, hi, kv.Key, kv.Value)
						}
					}
				}
			}
		}
	}
}

// TestScanLongLeavesAndReuse: values beyond the speculative leaf read are
// fetched again at their real size in a later round, never one by one, and
// a second scan on the engine (same arena, same frontier storage) does not
// disturb results handed out by the first.
func TestScanLongLeavesAndReuse(t *testing.T) {
	e, root := testEngine(t, Config{})
	val := func(i int) string { return strings.Repeat(fmt.Sprint(i%10), 40+37*(i%9)) }
	for i := 0; i < 300; i++ {
		mustPut(t, e, root, fmt.Sprintf("key/%04d", i), val(i))
	}
	var log batchLog
	start := root()
	e.C.SetObserver(&log)
	first, err := e.ScanFrom(start, nil, nil, 0, true)
	e.C.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range log.evs {
		if ev.Stage != fabric.StageScan {
			t.Errorf("a %v batch inside the scan", ev.Stage)
		}
	}
	if _, err := e.ScanFrom(root(), []byte("key/01"), nil, 100, true); err != nil {
		t.Fatal(err)
	}
	if len(first) != 300 {
		t.Fatalf("full scan returned %d keys", len(first))
	}
	for i, kv := range first {
		if string(kv.Key) != fmt.Sprintf("key/%04d", i) || string(kv.Value) != val(i) {
			t.Fatalf("result %d = %q (%d-byte value) after a second scan reused the arena", i, kv.Key, len(kv.Value))
		}
	}
}
