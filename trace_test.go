package sphinx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
)

// TestTraceColdGet pins the paper's §III-B claim in trace form: a Get the
// leaf-address cache has no opinion on costs exactly three round trips —
// hash-read, node-read, leaf-read — independent of tree depth, and the
// session's histogram totals reconcile with the fabric's own counters. That is
// the first touch of the prefix; it teaches the cache where the prefix's node
// lives, and the next Get under it needs no table read: two round trips.
func TestTraceColdGet(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()

	// Two keys diverging at depth 3 force an inner node at "LYR", so the
	// hash path has a real hash-table target below the root.
	if err := s.Put([]byte("LYRICS"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("LYRBIC"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Warm the filter cache on the sibling key: the "LYR" prefix becomes
	// known CN-side, but the leaf-address cache learns nothing about
	// LYRBIC — so the traced Get below is the pure 3-RT hash path.
	if _, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok {
		t.Fatalf("warm-up Get = ok %v, err %v", ok, err)
	}
	// The session built "LYR" itself and remembers where it put it. A first
	// touch is the filter knowing a prefix whose address the cache does not
	// hold — learned from a peer's traversal, or displaced by leaf addresses.
	cn.node.LAC.Reset()

	tr, err := s.Trace("get LYRBIC", func() error {
		v, ok, err := s.Get([]byte("LYRBIC"))
		if err == nil && (!ok || string(v) != "v2") {
			t.Errorf("traced Get = %q, ok %v", v, ok)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := tr.RoundTrips(); got != 3 {
		t.Fatalf("cold Get took %d round trips, want 3:\n%s", got, tr.Format())
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	want := []string{
		fabric.StageHashRead.String(),
		fabric.StageNodeRead.String(),
		fabric.StageLeafRead.String(),
	}
	if len(stages) != len(want) {
		t.Fatalf("batch stages = %v, want %v:\n%s", stages, want, tr.Format())
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("batch stages = %v, want %v:\n%s", stages, want, tr.Format())
		}
	}
	out := tr.Format()
	for _, needle := range []string{"3 round trips", "hash-read", "node-read", "leaf-read"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}

	// Second touch: LYRICS's leaf is forgotten too, the landing is not.
	sx0, _ := s.SphinxStats()
	tr2, err := s.Trace("get LYRICS", func() error {
		_, _, err := s.Get([]byte("LYRICS"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stages = stages[:0]
	for _, e := range tr2.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	if out := tr2.Format(); tr2.RoundTrips() != 2 || strings.Join(stages, " ") != "node-read leaf-read" ||
		!strings.Contains(out, "node address hit: table read skipped") {
		t.Fatalf("second-touch Get: %d round trips, stages %v; want 2, the node at its remembered address and the leaf:\n%s",
			tr2.RoundTrips(), stages, out)
	}
	if sx, _ := s.SphinxStats(); sx.NodeHits != sx0.NodeHits+1 || sx.NodeRefutes != 0 || sx.NodeAborts != 0 {
		t.Errorf("node address hits %d → %d, refutes %d, aborts %d; want one more, 0, 0", sx0.NodeHits, sx.NodeHits, sx.NodeRefutes, sx.NodeAborts)
	}

	// The tee'd recorder must not have perturbed the session accounting: a
	// sequential session reconciles at both the stage and the op level.
	st := s.Stats()
	if got := s.Metrics().StageRTTotal(); got != st.RoundTrips {
		t.Errorf("stage RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	if got := s.Metrics().OpRTTotal(); got != st.RoundTrips {
		t.Errorf("op RT total %d != fabric round trips %d", got, st.RoundTrips)
	}

	// The registry sees the same truth through its export path.
	snap := s.Registry().Snapshot()
	if snap.Counters["fabric_round_trips"] != st.RoundTrips {
		t.Errorf("registry fabric_round_trips = %d, want %d",
			snap.Counters["fabric_round_trips"], st.RoundTrips)
	}
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `sphinx_session_stage_round_trips_count{stage="hash-read"}`) {
		t.Errorf("prometheus export missing hash-read stage histogram:\n%s", prom.String())
	}
}

// TestTraceWarmGet pins the speculative fast path in trace form: a Get
// whose key the leaf-address cache knows costs exactly ONE round trip —
// a leaf-spec read verified in place — and the trace carries the hit
// annotation. Accounting still reconciles with the fabric's counters.
func TestTraceWarmGet(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()

	if err := s.Put([]byte("LYRICS"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("LYRBIC"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The warm-up Get traverses the tree and learns LYRICS's leaf address.
	if _, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok {
		t.Fatalf("warm-up Get = ok %v, err %v", ok, err)
	}

	tr, err := s.Trace("get LYRICS", func() error {
		v, ok, err := s.Get([]byte("LYRICS"))
		if err == nil && (!ok || string(v) != "v1") {
			t.Errorf("traced Get = %q, ok %v", v, ok)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := tr.RoundTrips(); got != 1 {
		t.Fatalf("warm Get took %d round trips, want 1:\n%s", got, tr.Format())
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	if len(stages) != 1 || stages[0] != fabric.StageLeafSpec.String() {
		t.Fatalf("batch stages = %v, want [leaf-spec]:\n%s", stages, tr.Format())
	}
	out := tr.Format()
	for _, needle := range []string{"1 round trips", "leaf-spec", "lac hit"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}

	// Speculative counters surfaced at the session level.
	sc, ok := s.SphinxStats()
	if !ok || sc.SpecHits != 1 {
		t.Errorf("SphinxStats SpecHits = %d (ok %v), want 1", sc.SpecHits, ok)
	}

	// Accounting reconciles: the speculative round trip is attributed to
	// the leaf-spec stage and counted exactly once.
	st := s.Stats()
	if got := s.Metrics().StageRTTotal(); got != st.RoundTrips {
		t.Errorf("stage RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	if got := s.Metrics().OpRTTotal(); got != st.RoundTrips {
		t.Errorf("op RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	var prom strings.Builder
	if err := s.Registry().Snapshot().WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`sphinx_session_stage_round_trips_count{stage="leaf-spec"}`,
		"sphinx_core_spec_hits 1",
		"sphinx_lac_learns",
		"sphinx_lac_full_buckets 0",
	} {
		if !strings.Contains(prom.String(), needle) {
			t.Errorf("prometheus export missing %q", needle)
		}
	}
}

// TestTraceWarmUpdate pins the speculative in-place write in trace form: an
// Update whose key the leaf-address cache knows costs exactly TWO round
// trips, both leaf-write stage — the header CAS + leaf READ at the cached
// address, then the releasing image WRITE — carries the hit annotation, and
// surfaces in the session counters and the registry under lac_update_*.
func TestTraceWarmUpdate(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	for _, k := range []string{"LYRICS", "LYRBIC"} {
		if err := s.Put([]byte(k), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	// The first Update walks the tree and teaches the cache LYRICS's leaf.
	if ok, err := s.Update([]byte("LYRICS"), []byte("v2")); err != nil || !ok {
		t.Fatalf("warm-up Update = ok %v, err %v", ok, err)
	}

	tr, err := s.Trace("update LYRICS", func() error {
		_, err := s.Update([]byte("LYRICS"), []byte("v3"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	if tr.RoundTrips() != 2 || fmt.Sprint(stages) != "[leaf-write leaf-write]" {
		t.Fatalf("warm Update: %d round trips, batches %v; want 2, [leaf-write leaf-write]:\n%s", tr.RoundTrips(), stages, tr.Format())
	}
	if out := tr.Format(); !strings.Contains(out, "lac update hit: locked+verified in one round trip") {
		t.Errorf("trace lacks the hit note:\n%s", out)
	}
	if v, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok || string(v) != "v3" {
		t.Errorf("Get after the traced Update = %q, %v, %v", v, ok, err)
	}

	sc, ok := s.SphinxStats()
	if !ok || sc.SpecUpdHits != 1 || sc.SpecUpdMisses != 3 || sc.SpecHits != 1 {
		t.Errorf("SphinxStats = %+v (ok %v); want 1 speculative update hit, 3 misses (2 Puts, 1 cold Update), 1 Get hit", sc, ok)
	}
	if got, want := s.Metrics().StageRTTotal(), s.Stats().RoundTrips; got != want {
		t.Errorf("stage RT total %d != fabric round trips %d", got, want)
	}
	var prom strings.Builder
	if err := s.Registry().Snapshot().WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"sphinx_lac_update_hits 1", "sphinx_lac_update_misses 3", "sphinx_core_spec_upd_hits 1"} {
		if !strings.Contains(prom.String(), needle) {
			t.Errorf("prometheus export missing %q", needle)
		}
	}
}

// TestTraceHotGet pins the hot-replica read in trace form, in the vocabulary
// it shares with the two leaf-address-cache paths: a Get of a promoted key is
// ONE hot-read round trip carrying the hit note; once another compute node's
// write has retired the records this node's routes name, the next Get says so
// on a hot-read row — refuted, unlearned — and is served by the tier below.
func TestTraceHotGet(t *testing.T) {
	cluster, err := newTestCluster(Config{MemoryNodes: 3, HotReplicaFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	fabrictest.Queue(t, cluster.cl.F, cluster.cl.Sphinx.Hot.Load, 0)
	cn := cluster.NewComputeNode()
	cn.node.Hot.SetThresholds(3, 1, 1<<40)
	s, other := cn.NewSession(), cluster.NewComputeNode().NewSession()
	key := []byte("popular-key")
	if err := s.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, ok, err := s.Get(key); err != nil || !ok {
			t.Fatalf("heating Get = ok %v, err %v", ok, err)
		}
	}
	tracedGet := func(want string) *Trace {
		t.Helper()
		tr, err := s.Trace("get", func() error {
			v, ok, err := s.Get(key)
			if err == nil && (!ok || string(v) != want) {
				t.Errorf("traced Get = %q, ok %v; want %q", v, ok, want)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	tr := tracedGet("v1")
	if out := tr.Format(); tr.RoundTrips() != 1 || !strings.Contains(out, "hot-read") ||
		!strings.Contains(out, "hot hit: replica record verified in one round trip") {
		t.Errorf("promoted Get: %d round trips, want 1 hot-read with the hit note:\n%s", tr.RoundTrips(), out)
	}

	if err := other.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	tr = tracedGet("v2")
	refuted := false
	for _, e := range tr.Events {
		refuted = refuted || (e.Stage == fabric.StageHotRead && e.Text() == "refuted: verification failed, unlearned")
	}
	if !refuted {
		t.Errorf("Get over retired records lacks the hot-read refutation note:\n%s", tr.Format())
	}
	if sc, _ := s.SphinxStats(); sc.HotHits == 0 || sc.HotRefutes == 0 {
		t.Errorf("SphinxStats = %d hot hits, %d hot refutes; want both counted", sc.HotHits, sc.HotRefutes)
	}
}

// TestTraceReplicatedPut pins a write's acknowledgement on a cluster with both
// replica layers in trace form. A warm Update is the speculative in-place
// write (2 round trips) with the anchors' fan-out over the key's two replicas
// begun ahead of it: its read rounds ride the write's own batches — the bucket
// pairs behind the lock CAS and leaf READ, the heads behind the releasing
// WRITE — and only its image WRITE + entry CAS waits for the commit. ONE
// fan-out over the key's three hot tables begins there, where the hot
// writers' gate is judged, and advances in the same doorbell rounds: for a key
// that is not promoted (once another key's promotion has opened the gate) it
// is the probe riding the anchors' last round, 2 + 1 = 3 round trips where the
// anchors behind the write took 5 and the layers one after the other 6; for
// the promoted key it is 4 rounds (bucket pairs, heads, WRITE + CAS, retires),
// the anchors' last inside the first, 2 + 4 = 6 where they took 9. A round
// carrying a hot-record verb is a hot-pub row, a ridden one the write's own
// leaf-write row; each fan-out closes with a note of its legs, rounds and
// ridden rounds, and is counted.
func TestTraceReplicatedPut(t *testing.T) {
	cluster, err := newTestCluster(Config{MemoryNodes: 3, Replication: 2, HotReplicaFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	fabrictest.Queue(t, cluster.cl.F, cluster.cl.Sphinx.Hot.Load, 0)
	cn := cluster.NewComputeNode()
	cn.node.Hot.SetThresholds(3, 1, 1<<40)
	s := cn.NewSession()
	key, popular, value := []byte("plain-key"), []byte("popular-key"), bytes.Repeat([]byte("v"), 1024)
	for _, k := range [][]byte{key, popular} {
		if err := s.Put(k, value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, ok, err := s.Get(popular); err != nil || !ok {
			t.Fatalf("heating Get = ok %v, err %v", ok, err)
		}
	}
	before, _ := s.SphinxStats()
	if before.HotPromotes != 1 {
		t.Fatalf("%d promotions; the hot writers' gate is still shut", before.HotPromotes)
	}
	for _, tc := range []struct {
		key      []byte
		rts      uint64
		rows     string
		counters [6]uint64 // fan-outs, rounds, legs, requeues, splits, ridden
	}{
		{key, 3, "[leaf-write leaf-write hot-pub none replicas: 2 legs, 3 rounds, 2 ridden hot-pub replicas: 3 legs, 1 rounds]", [6]uint64{2, 3, 5, 0, 0, 2}},
		{popular, 6, "[leaf-write leaf-write hot-pub hot-pub hot-pub hot-pub none replicas: 2 legs, 3 rounds, 2 ridden hot-pub replicas: 3 legs, 4 rounds]", [6]uint64{2, 6, 5, 0, 0, 2}},
	} {
		// The first Update teaches the leaf-address cache the key's leaf.
		if ok, err := s.Update(tc.key, value); err != nil || !ok {
			t.Fatalf("warm-up Update of %s = ok %v, err %v", tc.key, ok, err)
		}
		before, _ = s.SphinxStats()
		tr, err := s.Trace("update "+string(tc.key), func() error {
			_, err := s.Update(tc.key, value)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, e := range tr.Events {
			if e.Batch {
				rows = append(rows, e.Stage.String())
			} else if strings.HasPrefix(e.Text(), "replicas: ") {
				rows = append(rows, e.Stage.String()+" "+e.Text())
			}
		}
		if tr.RoundTrips() != tc.rts || fmt.Sprint(rows) != tc.rows {
			t.Errorf("replicated warm Update of %s: %d round trips, rows %v; want %d, %s:\n%s", tc.key, tr.RoundTrips(), rows, tc.rts, tc.rows, tr.Format())
		}
		after, _ := s.SphinxStats()
		if d := [6]uint64{after.ReplicaFanouts - before.ReplicaFanouts, after.ReplicaRounds - before.ReplicaRounds,
			after.ReplicaLegs - before.ReplicaLegs, after.ReplicaRequeues - before.ReplicaRequeues, after.ReplicaSplits - before.ReplicaSplits,
			after.ReplicaRidden - before.ReplicaRidden}; d != tc.counters {
			t.Errorf("fan-outs, rounds, legs, requeues, splits, ridden rounds of the traced Update of %s = %v; want %v", tc.key, d, tc.counters)
		}
	}
	var prom strings.Builder
	if err := s.Registry().Snapshot().WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"sphinx_core_replica_fanouts ", "sphinx_core_replica_rounds ", "sphinx_core_replica_legs ",
		"sphinx_core_replica_requeues 0", "sphinx_core_replica_splits 0", "sphinx_core_replica_ridden "} {
		if !strings.Contains(prom.String(), needle) {
			t.Errorf("prometheus export missing %q", needle)
		}
	}
	if got, want := s.Metrics().StageRTTotal(), s.Stats().RoundTrips; got != want {
		t.Errorf("stage RT total %d != fabric round trips %d", got, want)
	}
}

// TestTraceWarmPut pins the write path in trace form: a Put of a fresh key
// under a node whose prefix the filter cache knows and whose address the
// leaf-address cache remembers costs exactly TWO round trips — the landing
// node's READ behind the CAS for its lease (a lock batch), with no table read
// ahead of it, and the install carrying the fresh leaf's WRITE, the slot WRITE
// and the unlock — abandons nothing, gives back no lease, and reconciles with
// the fabric's own counters; a leaf conversion there costs three (landing, old
// leaf, commit) and a compressed-path split from the root four. (The first
// touch of a prefix pays the paper's third: internal/core
// TestWriteBudgetsWithINHT has both columns.)
func TestTraceWarmPut(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()

	// Two keys diverging at depth 3 create the inner node "LYR" and teach
	// the filter cache its prefix and the leaf-address cache its address.
	if err := s.Put([]byte("LYRICS"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("LYRBIC"), []byte("v2")); err != nil {
		t.Fatal(err)
	}

	tr, err := s.Trace("put LYRE", func() error { return s.Put([]byte("LYRE"), []byte("v3")) })
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.RoundTrips(); got != 2 {
		t.Fatalf("warm fresh-key Put took %d round trips, want 2:\n%s", got, tr.Format())
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	want := []string{
		fabric.StageLock.String(),
		fabric.StageInstall.String(),
	}
	if strings.Join(stages, " ") != strings.Join(want, " ") {
		t.Fatalf("batch stages = %v, want %v:\n%s", stages, want, tr.Format())
	}
	if !strings.Contains(tr.Format(), "node address hit: table read skipped") {
		t.Errorf("Put trace lacks the remembered landing's note:\n%s", tr.Format())
	}
	if out := tr.Format(); strings.Contains(out, "abandoned") || strings.Contains(out, "restart") || strings.Contains(out, "lease bet") {
		t.Errorf("uncontended Put trace reports waste, a restart or a bet that did not become the lock:\n%s", out)
	}
	if v, ok, err := s.Get([]byte("LYRE")); err != nil || !ok || string(v) != "v3" {
		t.Errorf("Get after traced Put = %q, %v, %v", v, ok, err)
	}

	// The leaf conversion at the remembered landing and the compressed-path
	// split from the root (docs/trace-put.txt), once inner nodes on every
	// memory node have reserved the allocator slabs and directory caches: the
	// conversion posts no lock batch behind its won bet — the fresh leaf and
	// node lead the commit batch, whose entry CAS goes blind — and the split's
	// head WRITE leads the batch that repoints its parent.
	for _, k := range []string{"MOON1", "MOON2", "SUN1", "SUN2", "STAR1", "STAR2", "NOVA1", "NOVA2", "COMET1", "COMET2", "QUASAR1", "QUASAR2"} {
		if err := s.Put([]byte(k), []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ key, rows string }{
		{"LYRE2", "lock/2 leaf-read/1 publish/7"},
		{"LYX", "node-read/1 node-read/1 lock/6 publish/6"},
	} {
		tr, err := s.Trace("put "+tc.key, func() error { return s.Put([]byte(tc.key), []byte("v")) })
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, e := range tr.Events {
			if e.Batch {
				rows = append(rows, fmt.Sprintf("%v/%d", e.Stage, e.Verbs))
			}
		}
		if got := strings.Join(rows, " "); got != tc.rows || strings.Contains(tr.Format(), "table loop") {
			t.Errorf("put %s: batches %s, want %s, no table loop:\n%s", tc.key, got, tc.rows, tr.Format())
		}
	}

	st := s.Stats()
	if got := s.Metrics().StageRTTotal(); got != st.RoundTrips {
		t.Errorf("stage RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	if got := s.Metrics().OpRTTotal(); got != st.RoundTrips {
		t.Errorf("op RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	// The speculative-waste counters travel the registry's reflection path.
	snap := s.Registry().Snapshot()
	for _, name := range []string{"engine_abandoned_objects", "engine_abandoned_bytes", "engine_lease_bets_lost", "engine_lease_bets_returned"} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("registry counter %s = %d (present %v), want 0", name, v, ok)
		}
	}
	if v := snap.Counters["engine_lease_bets"]; v == 0 {
		t.Error("registry counter engine_lease_bets = 0; the traced Put's jump bet on its landing")
	}
}

// TestTraceScan pins a range scan in trace form: the root's node-read, then
// only scan-stage batches — one per tree level plus what the window estimate
// fell short by, not one per visited node — closed by one note accounting for
// every round, fetched object and returned key, which the registry's
// engine_scan_* counters repeat.
func TestTraceScan(t *testing.T) {
	cluster, err := newTestCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	for i := 0; i < 400; i++ {
		if err := s.Put([]byte(fmt.Sprintf("scan/%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := s.Trace("scan scan/0100 50", func() error {
		kvs, err := s.Scan([]byte("scan/0100"), nil, 50)
		if err == nil && (len(kvs) != 50 || string(kvs[0].Key) != "scan/0100" || string(kvs[49].Key) != "scan/0149") {
			t.Errorf("traced Scan returned %d keys", len(kvs))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	// Keys scan/0100..0149 sit under root → "scan/0" → "scan/01" → ten-key
	// nodes: four levels below the root's own read.
	rounds := len(stages) - 1
	if stages[0] != fabric.StageNodeRead.String() || strings.Count(strings.Join(stages, " "), "scan") != rounds || rounds > 6 {
		t.Fatalf("batch stages = %v, want node-read then at most 6 × scan:\n%s", stages, tr.Format())
	}
	snap := s.Registry().Snapshot()
	reads, nodes := snap.Counters["engine_scan_reads"], snap.Counters["engine_scan_node_reads"]
	note := fmt.Sprintf("scan: %d rounds, %d reads (%d nodes, %d leaves), 50 emitted, 0 re-resolved", rounds, reads, nodes, reads-nodes)
	if out := tr.Format(); !strings.Contains(out, note) || reads > 100 {
		t.Errorf("trace lacks the note %q, or the scan over-fetched:\n%s", note, out)
	}
	if snap.Counters["engine_scan_rounds"] != uint64(rounds) || snap.Counters["engine_scan_emitted"] != 50 {
		t.Errorf("registry engine_scan_rounds = %d, engine_scan_emitted = %d; want %d, 50",
			snap.Counters["engine_scan_rounds"], snap.Counters["engine_scan_emitted"], rounds)
	}
	if got, want := s.Metrics().StageRTTotal(), s.Stats().RoundTrips; got != want {
		t.Errorf("stage RT total %d != fabric round trips %d", got, want)
	}
}
