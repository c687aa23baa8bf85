package bench

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"sphinx"
	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/ycsb"
)

// liveFamiliesAtPR22 is every metric family (name without labels) of a warmed
// Live.Registry() snapshot at the commit before the index families moved into
// core.RegisterIndex, taken with warmedLive's exact scenario. The one rename
// since is stated in TestRegistryFamilies.
var liveFamiliesAtPR22 = []string{
	"alert_fired_total", "alert_firing", "alert_resolved_total", "alert_state", "bench_op_latency_ps",
	"bench_op_round_trips", "bench_stage_bytes", "bench_stage_faults", "bench_stage_latency_ps",
	"bench_stage_round_trips", "bench_stage_verbs", "core_anchor_confirms", "core_collision_retry",
	"core_cutovers", "core_degraded_puts", "core_deletes", "core_epoch_fallbacks", "core_failovers",
	"core_false_positives", "core_filter_fallbacks", "core_filter_hits", "core_fp_mismatches",
	"core_hot_aborts", "core_hot_demotes", "core_hot_hits", "core_hot_promotes", "core_hot_refreshes",
	"core_hot_refutes", "core_inserts", "core_parent_retries", "core_partial_replicas",
	"core_replica_fanouts", "core_replica_legs", "core_replica_requeues", "core_replica_rounds",
	"core_replica_splits", "core_restarts", "core_restarts_node_down", "core_restarts_structural",
	"core_restarts_timeout", "core_restarts_transient", "core_root_starts", "core_scans",
	"core_searches", "core_spec_aborts", "core_spec_hits", "core_spec_misses", "core_spec_refutes",
	"core_spec_upd_aborts", "core_spec_upd_hits", "core_spec_upd_misses", "core_spec_upd_refutes",
	"core_stale_entries", "core_updates", "filter_deletes", "filter_duplicates", "filter_evictions",
	"filter_hits", "filter_hot_marks", "filter_inserts", "filter_kick_drops", "filter_misses",
	"filter_relocations", "filter_second_wins", "inht_bucket_overflows", "inht_candidates",
	"inht_capacity_entries", "inht_dir_doubles", "inht_dir_entries", "inht_entries", "inht_inserts",
	"inht_load_factor", "inht_lookups", "inht_planned_lost", "inht_planned_swaps", "inht_refreshes",
	"inht_reinserted", "inht_removes", "inht_replaces", "inht_retry_reads", "inht_segments",
	"inht_split_waits", "inht_splits", "inht_stale_checks", "lac_capacity_slots", "lac_evictions",
	"lac_full_buckets", "lac_hit_rate", "lac_learns", "lac_occupancy", "lac_occupied_slots",
	"lac_size_bytes", "lac_unlearns", "mn_arena_occupancy", "mn_busy_ratio", "mn_bytes_total",
	"mn_faults_total", "mn_hash_load", "mn_member", "mn_round_trips_total", "mn_verb_share",
	"mn_verbs_total", "mn_wait_ratio", "sfc_analytic_fp_bound", "sfc_capacity_slots",
	"sfc_false_positive_rate", "sfc_hit_depth", "sfc_load", "sfc_occupied_slots", "sfc_probes",
	"slo_attainment", "slo_bad_total", "slo_fast_burn", "slo_ops_total", "slo_slow_burn",
	"tail_captured", "tail_offered",
}

// families returns the metric family names of a snapshot: counter, gauge and
// histogram names with their label blocks dropped.
func families(snap obs.Snapshot) map[string]bool {
	set := map[string]bool{}
	add := func(k string) {
		if i := strings.IndexByte(k, '{'); i >= 0 {
			k = k[:i]
		}
		set[k] = true
	}
	for k := range snap.Counters {
		add(k)
	}
	for k := range snap.Gauges {
		add(k)
	}
	for k := range snap.Hists {
		add(k)
	}
	return set
}

// indexFamily says whether a family belongs to the index layers — the ones
// core.RegisterIndex and obs.IndexMetrics serve on both exporters.
func indexFamily(name string) bool {
	for _, p := range []string{"core_", "inht_", "engine_", "filter_", "lac_", "sfc_", "hot_", "ft_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// warmedLive loads a replicated hot-replica cluster whose fabric shows one NIC
// queueing and runs a read-only, a write-heavy and a scan workload into a
// fresh Live, so every conditional family (rates, ft_*, hot_*) has a source.
func warmedLive(t *testing.T) *Live {
	t.Helper()
	lv := NewLive()
	cfg := smallConfig(dataset.U64)
	cfg.Keys, cfg.Workers, cfg.OpsPerWorker = 2000, 2, 400
	cfg.Metrics, cfg.Live, cfg.Replication = true, lv, 2
	cl, err := NewCluster(SphinxHot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	fabrictest.Queue(t, cl.F, cl.sphinxShared.Hot.Load, 0)
	for _, w := range []ycsb.Workload{ycsb.WorkloadC, ycsb.WorkloadA, ycsb.WorkloadE} {
		if _, err := cl.Run(w, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	lv.Plane.Tick(1 << 40)
	return lv
}

// warmedSessionFamilies is the other exporter on the same kind of cluster:
// a sphinx.Session that has run every kind of operation, a hot key included.
// The public API reaches no fabric, so the NIC queueing that lets the key
// promote is fabrictest.Queue's collision made through it: sessions of their
// own, whose clocks start at zero, read one 16 KB value at the same virtual
// instant; the declined promotions of the hot key tick the contention cache
// until a refresh sees it.
func warmedSessionFamilies(t *testing.T) map[string]bool {
	t.Helper()
	cluster, err := sphinx.NewCluster(sphinx.Config{Replication: 2, HotReplicaFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()
	big := strings.Repeat("q", 16000)
	if err := s.Put([]byte("fam-big"), []byte(big)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if v, _, err := cn.NewSession().Get([]byte("fam-big")); err != nil || string(v) != big {
			t.Fatalf("colliding Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("fam-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ { // every key warm, key 7 hot
		for _, k := range []int{i % 200, 7} {
			if _, _, err := s.Get([]byte(fmt.Sprintf("fam-%04d", k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Update([]byte("fam-0001"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scan([]byte("fam-0000"), []byte("fam-0040"), 0); err != nil {
		t.Fatal(err)
	}
	return families(s.Registry().Snapshot())
}

// TestRegistryFamilies is the live exporter's half of the root package's test
// of the same name — nothing it served before the one assembly is lost, every
// field of the counter structs is exported, the family table of
// docs/observability.md matches in both directions — plus what the one
// assembly buys: the two exporters serve the same index families.
func TestRegistryFamilies(t *testing.T) {
	snap := warmedLive(t).Registry().Snapshot()
	got := families(snap)

	for _, want := range liveFamiliesAtPR22 {
		if want == "core_collision_retry" {
			want = "core_collision_retries" // core.Stats.CollisionRetry was renamed to match SphinxCounters
		}
		if !got[want] {
			t.Errorf("family %s was exported before core.RegisterIndex and is gone", want)
		}
	}

	for prefix, zero := range map[string]any{
		"core": core.Stats{}, "inht": racehash.Stats{}, "engine": rart.EngineStats{},
		"filter": cuckoo.Stats{}, "lac": core.LACStats{},
	} {
		for field := range obs.Fields(zero) {
			if _, ok := snap.Counters[prefix+"_"+field]; !ok {
				t.Errorf("%T field %s is not exported as %s_%s", zero, field, prefix, field)
			}
		}
	}

	documented := documentedIndexFamilies(t, "../../docs/observability.md")
	session := warmedSessionFamilies(t)
	for name := range got {
		if !indexFamily(name) {
			continue
		}
		if !documented[name] {
			t.Errorf("family %s is served but has no row in docs/observability.md", name)
		}
		if !session[name] {
			t.Errorf("index family %s is on the live exporter and not on a session's", name)
		}
	}
	for name := range documented {
		if !got[name] {
			t.Errorf("docs/observability.md documents family %s, which the live exporter does not serve", name)
		}
	}
	for name := range session {
		if indexFamily(name) && !got[name] {
			t.Errorf("index family %s is on a session's exporter and not on the live one", name)
		}
	}
}

// documentedIndexFamilies parses the index family table of the observability
// page: the first backticked name of each row between the two markers.
func documentedIndexFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	page, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(page), "<!-- index-families:begin -->")
	table, _, ok2 := strings.Cut(table, "<!-- index-families:end -->")
	if !ok || !ok2 {
		t.Fatalf("%s has no index-families table markers", path)
	}
	set := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)`").FindAllStringSubmatch(table, -1) {
		set[m[1]] = true
	}
	if len(set) == 0 {
		t.Fatalf("%s: empty index family table", path)
	}
	return set
}
