package sphinx

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

// sessionFamiliesAtPR22 is every metric family (name without labels) of a
// warmed Session.Registry() snapshot at the commit before the index families
// moved into core.RegisterIndex, taken with warmedSession's exact scenario.
// The one rename since is stated in TestRegistryFamilies.
var sessionFamiliesAtPR22 = []string{
	"alert_fired_total", "alert_firing", "alert_resolved_total", "alert_state",
	"core_anchor_confirms", "core_collision_retry", "core_cutovers", "core_degraded_puts",
	"core_deletes", "core_epoch_fallbacks", "core_failovers", "core_false_positives",
	"core_filter_fallbacks", "core_filter_hits", "core_fp_mismatches", "core_hot_aborts",
	"core_hot_demotes", "core_hot_hits", "core_hot_promotes", "core_hot_refreshes",
	"core_hot_refutes", "core_inserts", "core_parent_retries", "core_partial_replicas",
	"core_replica_fanouts", "core_replica_legs", "core_replica_requeues", "core_replica_rounds",
	"core_replica_splits", "core_restarts", "core_restarts_node_down", "core_restarts_structural",
	"core_restarts_timeout", "core_restarts_transient", "core_root_starts", "core_scans",
	"core_searches", "core_spec_aborts", "core_spec_hits", "core_spec_misses", "core_spec_refutes",
	"core_spec_upd_aborts", "core_spec_upd_hits", "core_spec_upd_misses", "core_spec_upd_refutes",
	"core_stale_entries", "core_updates", "engine_abandoned_bytes", "engine_abandoned_objects",
	"engine_leaf_lock_breaks", "engine_lease_bets", "engine_lease_bets_lost", "engine_lease_bets_returned",
	"engine_lock_steals", "engine_publish_retries", "engine_restarts", "engine_scan_emitted",
	"engine_scan_node_reads", "engine_scan_reads", "engine_scan_reresolved", "engine_scan_rounds",
	"fabric_by_kind_0", "fabric_by_kind_1", "fabric_by_kind_2", "fabric_by_kind_3",
	"fabric_bytes_read", "fabric_bytes_write", "fabric_delays", "fabric_health_rejects",
	"fabric_node_down_rejects", "fabric_round_trips", "fabric_timeouts", "fabric_transients",
	"fabric_verbs", "filter_deletes", "filter_duplicates", "filter_evictions", "filter_hits",
	"filter_hot_marks", "filter_inserts", "filter_kick_drops", "filter_misses", "filter_relocations",
	"filter_second_wins", "ft_node_health", "ft_repair_copied", "ft_repair_sweeps",
	"ft_under_replicated", "hot_hit_rate", "hot_tracker_bytes", "inht_bucket_overflows",
	"inht_candidates", "inht_capacity_entries", "inht_dir_doubles", "inht_dir_entries",
	"inht_entries", "inht_epoch", "inht_inserts", "inht_load_factor", "inht_lookups",
	"inht_planned_lost", "inht_planned_swaps", "inht_refreshes", "inht_reinserted", "inht_removes",
	"inht_replaces", "inht_retry_reads", "inht_segments", "inht_split_waits", "inht_splits",
	"inht_stale_checks", "lac_capacity_slots", "lac_evictions", "lac_full_buckets", "lac_hit_rate",
	"lac_learns", "lac_occupied_slots", "lac_size_bytes", "lac_unlearns", "lac_update_aborts",
	"lac_update_hits", "lac_update_misses", "lac_update_refutes", "mn_arena_occupancy",
	"mn_busy_ratio", "mn_bytes_total", "mn_faults_total", "mn_hash_load", "mn_member",
	"mn_round_trips_total", "mn_verb_share", "mn_verbs_total", "mn_wait_ratio",
	"session_op_latency_ps", "session_op_round_trips", "session_stage_bytes", "session_stage_faults",
	"session_stage_latency_ps", "session_stage_round_trips", "session_stage_verbs",
	"sfc_analytic_fp_bound", "sfc_capacity_slots", "sfc_false_positive_rate", "sfc_fp_per_claim",
	"sfc_hit_depth", "sfc_hot_entries", "sfc_load", "sfc_occupied_slots", "sfc_probes",
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

// warmedSession runs every kind of operation — a hot key, updates, a scan, a
// delete, a pipelined MultiGet — on a replicated cluster with hot replicas
// whose fabric shows one NIC queueing, so every conditional family (rates,
// ft_*, hot_*) has a source.
func warmedSession(t *testing.T) *Session {
	t.Helper()
	cluster, err := newTestCluster(Config{Replication: 2, HotReplicaFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	fabrictest.Queue(t, cluster.cl.F, cluster.cl.Sphinx.Hot.Load, 0)
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, 300)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("fam-%04d", i))
		if err := s.Put(keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			if _, _, err := s.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i++ { // one hot key, so the hot layer promotes and serves
		if _, _, err := s.Get(keys[7]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:50] {
		if _, err := s.Update(k, []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan(keys[0], keys[40], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(keys[299]); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.MultiGet(keys[:64], 8) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	cluster.SampleObservability(s.Stats().ClockPs + 1)
	return s
}

// TestRegistryFamilies holds the session exporter to three lists: what it
// served before the one assembly (nothing lost), the counter structs' own
// fields (a field added to one of them is exported with no other edit), and
// the family table of docs/observability.md (in both directions).
func TestRegistryFamilies(t *testing.T) {
	snap := warmedSession(t).Registry().Snapshot()
	got := families(snap)

	for _, want := range sessionFamiliesAtPR22 {
		if want == "core_collision_retry" {
			want = "core_collision_retries" // core.Stats.CollisionRetry was renamed to match SphinxCounters
		}
		if !got[want] {
			t.Errorf("family %s was exported before core.RegisterIndex and is gone", want)
		}
	}

	for prefix, zero := range map[string]any{
		"fabric": fabric.Stats{}, "core": core.Stats{}, "inht": racehash.Stats{},
		"engine": rart.EngineStats{}, "filter": cuckoo.Stats{}, "lac": core.LACStats{},
	} {
		for field := range obs.Fields(zero) {
			if _, ok := snap.Counters[prefix+"_"+field]; !ok {
				t.Errorf("%T field %s is not exported as %s_%s", zero, field, prefix, field)
			}
		}
	}

	documented := documentedIndexFamilies(t, "docs/observability.md")
	for name := range got {
		if indexFamily(name) && !documented[name] {
			t.Errorf("family %s is served but has no row in docs/observability.md", name)
		}
	}
	for name := range documented {
		if !got[name] {
			t.Errorf("docs/observability.md documents family %s, which the session does not serve", name)
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
