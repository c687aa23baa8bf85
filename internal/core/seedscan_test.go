package core

import (
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/rart"
)

// seededTree builds a one-MN cluster holding keys (value "v:"+key), inserted
// by the client it returns, whose filter and leaf-address cache therefore know
// every inner node on every key's path.
func seededTree(t *testing.T, keys ...string) (*fabric.Fabric, Shared, *Client) {
	t.Helper()
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	for _, k := range keys {
		if _, err := c.Insert([]byte(k), []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	return f, shared, c
}

// seededScan scans [lo, hi] on c and checks the keys it returns, each with its
// "v:"+key value, against want; it returns what the scan cost the engine.
func seededScan(t *testing.T, c *Client, lo, hi string, limit int, want string) rart.EngineStats {
	t.Helper()
	var blo, bhi []byte
	if lo != "" {
		blo = []byte(lo)
	}
	if hi != "" {
		bhi = []byte(hi)
	}
	before := c.eng.Stats()
	kvs, err := c.Scan(blo, bhi, limit)
	if err != nil {
		t.Fatalf("scan [%q, %q]: %v", lo, hi, err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key))
		if v := string(kv.Value); v != "v:"+string(kv.Key) && !strings.HasPrefix(v, "big:") {
			t.Errorf("scan [%q, %q]: %q = %q", lo, hi, kv.Key, v)
		}
	}
	if g := strings.Join(got, " "); g != want {
		t.Errorf("scan [%q, %q] limit %d = %q, want %q", lo, hi, limit, g, want)
	}
	st := c.eng.Stats()
	return rart.EngineStats{ScanSeeded: st.ScanSeeded - before.ScanSeeded,
		ScanSeedNodes: st.ScanSeedNodes - before.ScanSeedNodes, ScanContinued: st.ScanContinued - before.ScanContinued}
}

// TestSeededScanHiOutsideLanding: hi cuts through the subtree of a seeded
// node only when it has the node's prefix. Here it has the root's and "g/"'s
// but not the landing's, "g/a": judged against the landing's depth anyway, its
// byte there would cut every child of the landing off.
func TestSeededScanHiOutsideLanding(t *testing.T) {
	_, _, c := seededTree(t, "g/a1", "g/a2", "g/a3", "g/b", "g/c", "h")
	st := seededScan(t, c, "g/a2", "g/b", 0, "g/a2 g/a3 g/b")
	if st.ScanSeeded != 1 || st.ScanSeedNodes != 2 || st.ScanContinued != 0 {
		t.Errorf("scan seeded %d times from %d nodes, continued %d; want 1 from 2 (g/a, g/), 0", st.ScanSeeded, st.ScanSeedNodes, st.ScanContinued)
	}
	seededScan(t, c, "g/a2", "g/a3", 0, "g/a2 g/a3")
	seededScan(t, c, "g/a3", "g/c", 0, "g/a3 g/b g/c")
}

// TestSeededScanStopsAtChainGap: the filter has lost "g/a/", the node between
// the landing "g/a/x" and "g/" on lo's path. The chain ends at the landing, so
// the scan goes on from the root past "g/a/x" — through "g/a/y…" — instead of
// taking "g/" as the landing's parent, whose cursor past its edge toward lo
// starts at "g/b".
func TestSeededScanStopsAtChainGap(t *testing.T) {
	_, _, c := seededTree(t, "g/a/x1", "g/a/x2", "g/a/x3", "g/a/y1", "g/a/y2", "g/b1", "g/b2", "h1")
	c.filter.Delete(PrefixFilterHash([]byte("g/a/")))
	st := seededScan(t, c, "g/a/x2", "", 0, "g/a/x2 g/a/x3 g/a/y1 g/a/y2 g/b1 g/b2 h1")
	if st.ScanSeeded != 1 || st.ScanSeedNodes != 1 || st.ScanContinued != 1 {
		t.Errorf("scan seeded %d times from %d nodes, continued %d; want 1 from 1 (g/a/x), 1", st.ScanSeeded, st.ScanSeedNodes, st.ScanContinued)
	}
	// Without the gap the chain runs up to "g/", and the root is read only
	// for what lies past it.
	c.filter.Insert(PrefixFilterHash([]byte("g/a/")))
	st = seededScan(t, c, "g/a/x2", "g/b2", 0, "g/a/x2 g/a/x3 g/a/y1 g/a/y2 g/b1 g/b2")
	if st.ScanSeedNodes != 3 || st.ScanContinued != 0 {
		t.Errorf("scan seeded from %d nodes, continued %d; want 3 (g/a/x, g/a/, g/), 0", st.ScanSeedNodes, st.ScanContinued)
	}
}

// TestSeededScanContinuesPastChainTop: the chain's top is "q\xff", whose
// successor is "r" — the carry past a 0xff byte. What lies past the chain
// comes from the root, from there on, once, and only if the limit and hi
// leave room for it.
func TestSeededScanContinuesPastChainTop(t *testing.T) {
	_, _, c := seededTree(t, "q\xffa1", "q\xffa2", "q\xffb1", "q\xffb2", "r1", "r2", "\xff\xff1", "\xff\xff2")
	st := seededScan(t, c, "q\xffa2", "", 0, "q\xffa2 q\xffb1 q\xffb2 r1 r2 \xff\xff1 \xff\xff2")
	if st.ScanSeeded != 1 || st.ScanSeedNodes != 2 || st.ScanContinued != 1 {
		t.Errorf("scan seeded %d times from %d nodes, continued %d; want 1 from 2 (q\\xffa, q\\xff), 1", st.ScanSeeded, st.ScanSeedNodes, st.ScanContinued)
	}
	if st = seededScan(t, c, "q\xffa2", "", 3, "q\xffa2 q\xffb1 q\xffb2"); st.ScanContinued != 0 {
		t.Errorf("a scan whose limit the chain filled went on from the root")
	}
	if st = seededScan(t, c, "q\xffa2", "q\xffz", 0, "q\xffa2 q\xffb1 q\xffb2"); st.ScanContinued != 0 {
		t.Errorf("a scan whose hi lies in the chain went on from the root")
	}
	seededScan(t, c, "q\xffb2", "r1", 0, "q\xffb2 r1")
	// A chain topped by an all-0xff prefix has nothing past it.
	if st = seededScan(t, c, "\xff\xff1", "", 0, "\xff\xff1 \xff\xff2"); st.ScanSeeded != 1 || st.ScanContinued != 0 {
		t.Errorf("scan from the last prefix: seeded %d, continued %d; want 1, 0", st.ScanSeeded, st.ScanContinued)
	}
}

// atSeedingBatch parks the scanning proc behind its seeding batch: the READ
// of lo's path, ahead of the frontier's first round.
func atSeedingBatch(s fabrictest.Step) bool { return s.BatchEnd && s.Stage == fabric.StageNodeRead }

// TestSeededScanSurvivesTypeSwitch: between the seeding batch and the
// frontier's rounds a rival grows the landing "t/" — a Node4 — into a Node16
// at a new address, then moves the leaf of t/c out of place through the copy.
// The scan holds the retired original as a cursor: t/c's leaf is retired, and
// the original's slot still names it, so the seeded scan cannot follow it and
// restarts. It does not return that failure: it goes to the root, which
// reaches the copy, and every key is there.
func TestSeededScanSurvivesTypeSwitch(t *testing.T) {
	f, shared, c := seededTree(t, "t/a", "t/b", "t/c", "t/d")
	rival := newSeededClient(f, shared, 7)
	var kvs []rart.KV
	var err, rerr error
	sw := fabrictest.Switch(0, atSeedingBatch)
	fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { kvs, err = c.Scan([]byte("t/a"), []byte("t/~"), 0) }},
		fabrictest.Proc{Fn: func() {
			if _, rerr = rival.Insert([]byte("t/e"), []byte("v:t/e")); rerr == nil {
				_, rerr = rival.Update([]byte("t/c"), []byte("big:"+strings.Repeat("c", 500)))
			}
		}})
	if err != nil || rerr != nil || sw.Turns[0].At == nil {
		t.Fatalf("scan: %v; rival: %v; switched at %+v", err, rerr, sw.Turns[0].At)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key))
	}
	if g := strings.Join(got, " "); g != "t/a t/b t/c t/d t/e" && g != "t/a t/b t/c t/d" {
		t.Fatalf("scan across a type switch of its landing returned %q", g)
	}
	if !strings.HasPrefix(string(kvs[2].Value), "big:") {
		t.Errorf("t/c = %.8q…, want the rival's value: the root-anchored scan began behind the update", kvs[2].Value)
	}
	if st := c.Stats(); st.ScanRootFallbacks != 1 || c.eng.Stats().ScanSeeded != 1 {
		t.Errorf("%d root fallbacks of %d seeded scans; want 1 of 1", st.ScanRootFallbacks, c.eng.Stats().ScanSeeded)
	}
}

// TestSeededScanSurvivesPartialSplit: between the seeding batch and the
// frontier's rounds a rival's insert of s/bcX splits the compressed path of
// "s/bcdefg", the child of the seeded "s/" that the frontier reads next. The
// child's partial shrinks, so hi, which runs through it, must not be judged
// against it: the scan follows the slot of the seeded "s/" to the node that
// took over the head of the path.
func TestSeededScanSurvivesPartialSplit(t *testing.T) {
	f, shared, c := seededTree(t, "s/a1", "s/a2", "s/bcdefg1", "s/bcdefg2")
	rival := newSeededClient(f, shared, 7)
	var kvs []rart.KV
	var err, rerr error
	sw := fabrictest.Switch(0, atSeedingBatch)
	fabrictest.Run(f, sw, fabrictest.Proc{C: c.eng.C, Fn: func() { kvs, err = c.Scan([]byte("s/a1"), []byte("s/bcdefg1"), 0) }},
		fabrictest.Proc{Fn: func() { _, rerr = rival.Insert([]byte("s/bcX"), []byte("v:s/bcX")) }})
	if err != nil || rerr != nil || sw.Turns[0].At == nil {
		t.Fatalf("scan: %v; rival: %v; switched at %+v", err, rerr, sw.Turns[0].At)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key))
	}
	if g := strings.Join(got, " "); g != "s/a1 s/a2 s/bcX s/bcdefg1" && g != "s/a1 s/a2 s/bcdefg1" {
		t.Fatalf("scan across a partial split above its frontier returned %q", g)
	}
	if st := c.eng.Stats(); st.ScanSeeded != 1 || st.ScanReresolved == 0 || c.Stats().ScanRootFallbacks != 0 {
		t.Errorf("%d seeded scans, %d re-resolved entries, %d root fallbacks; want 1, > 0, 0", st.ScanSeeded, st.ScanReresolved, c.Stats().ScanRootFallbacks)
	}
}

// TestSeededScanBudget pins a seeded limit-50 scan batch by batch, on 400 keys
// scan/0000 … scan/0399 under "scan/0" → one node per hundred → one per ten:
// with lo's path remembered, one READ of its three nodes and then the
// frontier's rounds; with the filter knowing the path but the leaf-address
// cache not, the three nodes' bucket pairs first. A path of one node only the
// table would name — lo scan/0 — is not asked for: the root's read reaches
// it as soon. A client without the filter scans from the root, as before
// seeding.
func TestSeededScanBudget(t *testing.T) {
	forget := func(c *Client) { c.lac.Reset() }
	for _, col := range []struct {
		name   string
		filter bool
		prep   func(*Client)
		lo     int // the scan's lo is scan/0 and the first lo digits of scan/%04d
		stages string
		verbs  []int
	}{
		{"remembered landing", true, func(*Client) {}, 3, "[node-read scan scan scan]", []int{3, 14, 32, 8}},
		{"landing through the table", true, forget, 3, "[hash-read node-read scan scan scan]", []int{6, 3, 14, 32, 8}},
		{"one-node path through the table", true, forget, 0, "[node-read scan scan scan scan scan]", []int{1, 1, 4, 5, 32, 18}},
		{"no filter", false, func(*Client) {}, 3, "[node-read scan scan scan scan scan]", []int{1, 1, 3, 6, 32, 18}},
	} {
		t.Run(col.name, func(t *testing.T) {
			f, shared := newCluster(t, 1, fabric.InstantConfig(), 1000)
			opts := withCaches(shared, Options{}, 0)
			if !col.filter {
				opts.Filter = nil
			}
			c := NewClient(shared, f.NewClient(), opts)
			for i := 0; i < 400; i++ {
				if _, err := c.Insert([]byte(fmt.Sprintf("scan/%04d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			col.prep(c)
			var log batchLog
			c.eng.C.SetObserver(&log)
			lo := "scan/0100"[:6+col.lo]
			first := map[int]int{0: 0, 3: 100}[col.lo]
			kvs, err := c.Scan([]byte(lo), nil, 50)
			c.eng.C.SetObserver(nil)
			if err != nil || len(kvs) != 50 || string(kvs[0].Key) != fmt.Sprintf("scan/%04d", first) ||
				string(kvs[49].Key) != fmt.Sprintf("scan/%04d", first+49) {
				t.Fatalf("scan from %q: %d keys, %v", lo, len(kvs), err)
			}
			var stages []string
			var verbs []int
			for _, ev := range log.evs {
				stages = append(stages, ev.Stage.String())
				verbs = append(verbs, ev.Verbs)
			}
			if got := fmt.Sprint(stages); got != col.stages || fmt.Sprint(verbs) != fmt.Sprint(col.verbs) {
				t.Errorf("batches %s of %v verbs; want %s of %v", got, verbs, col.stages, col.verbs)
			}
		})
	}
}

// TestSeededScanRefreshesStaleDirectory: a client that only scans meets the
// table through its directory cache alone. Once a rival's inserts have split
// the table's segments, the bucket pairs it fetches for lo's path are other
// buckets: those prefixes are left out of the seeding, and the cache is
// refreshed, so the next scan finds the whole path through the table.
func TestSeededScanRefreshesStaleDirectory(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 8)
	c := newTestClient(f, shared, Options{})
	for i := 0; i < 400; i++ {
		if _, err := c.Insert([]byte(fmt.Sprintf("scan/%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rival := newSeededClient(f, shared, 7)
	for i := 0; i < 3000; i++ {
		if _, err := rival.Insert([]byte(fmt.Sprintf("grow/%05d", i*7919%100000)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.lac.Reset()
	scan := func() (refreshes, seedNodes uint64) {
		h0, st0 := c.HashStats(), c.eng.Stats()
		kvs, err := c.Scan([]byte("scan/0100"), nil, 50)
		if err != nil || len(kvs) != 50 || string(kvs[0].Key) != "scan/0100" || string(kvs[49].Key) != "scan/0149" {
			t.Fatalf("scan: %d keys, %v", len(kvs), err)
		}
		return c.HashStats().Refreshes - h0.Refreshes, c.eng.Stats().ScanSeedNodes - st0.ScanSeedNodes
	}
	if _, seedNodes := scan(); seedNodes == 3 {
		t.Fatal("the rival's inserts left the scanning client's directory cache fresh for lo's path: nothing to test")
	}
	if refreshes, seedNodes := scan(); refreshes != 0 || seedNodes != 3 {
		t.Errorf("second scan: %d directory refreshes, seeded from %d nodes; want 0 and lo's whole path of 3", refreshes, seedNodes)
	}
}
