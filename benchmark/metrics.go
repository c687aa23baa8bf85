package main

import "sphinx/internal/fabric"

// metric describes one reported number. For end-to-end metrics bound is the
// share of the baseline by which it may worsen before a change counts as a
// regression; for per-layer metrics moves names the end-to-end metric and
// workload it is expected to move (the README carries the full table).
type metric struct {
	name, unit, better string
	bound              float64
	wall               bool // measured on the host clock: unresolved when GOMAXPROCS < drivers
	moves              string
}

// endToEnd is what a user of the index sees and the harness gates on. virt =
// modelled-network clock, wall = host clock.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, wall: true},
	{name: "virt_tput_mops", unit: "Mops/s", better: "higher", bound: 0.03},
	{name: "virt_lat_mean_us", unit: "us", better: "lower", bound: 0.03},
	{name: "rt_per_op", unit: "count", better: "lower", bound: 0.02},
	{name: "verbs_per_op", unit: "count", better: "lower", bound: 0.04},
	{name: "net_bytes_per_op", unit: "B", better: "lower", bound: 0.10},
	{name: "mn_bytes_per_key", unit: "B", better: "lower", bound: 0.03},
	{name: "cn_cache_bytes", unit: "B", better: "lower", bound: 0.01},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.08},
}

// extras are reported beside the metrics above, kept in every ledger file and
// (the first three) judged by compare, but are not in BENCHMARK.json, whose
// end-to-end metrics must hold a relative bound over ten seeds and whose
// per-layer metrics every workload must report:
//   - wall_tput_kops, the headline host-clock number, swings 15–25 % between
//     whole runs in the sandbox this was built in (see README), beyond what
//     a bound of at most 25 % can carry; the harness gates the host side on
//     allocs_per_op and alloc_bytes_per_op instead, which repeat;
//   - the two shares are 0 on a healthy, uncontended run;
//   - a traced run has per-kind call times only for the kinds it issues.
const (
	wallTput      = "wall_tput_kops"
	failedShare   = "failed_op_share"
	reissuedShare = "reissued_op_share" // calls repeated after an error ÷ ops; compare calls any rise worse
)

var extras = []metric{
	{name: wallTput, unit: "kops/s", better: "higher", bound: 0.25, wall: true},
	{name: failedShare, unit: "ratio", better: "lower"},
	{name: reissuedShare, unit: "ratio", better: "lower"},
	{name: "session.get_ns_p50", unit: "ns", better: "lower"},
	{name: "session.get_ns_p99", unit: "ns", better: "lower"},
	{name: "session.update_ns_p50", unit: "ns", better: "lower"},
	{name: "session.put_ns_p50", unit: "ns", better: "lower"},
	{name: "session.scan_ns_p50", unit: "ns", better: "lower"},
}

// Stages whose round trips (and, for the data-carrying ones, bytes) per op
// are reported. They cover every round trip a sequential session can make
// (flush belongs to pipelined sessions, sfc-probe never reaches the fabric):
// rt_reconciled checks it.
var (
	rtStages = []fabric.Stage{
		fabric.StageHashRead, fabric.StageNodeRead, fabric.StageLeafRead, fabric.StageLeafSpec,
		fabric.StageHotRead, fabric.StageLock, fabric.StageAlloc, fabric.StageLeafWrite,
		fabric.StageNodeWrite, fabric.StageInstall, fabric.StagePublish, fabric.StageUnlock,
		fabric.StageScan, fabric.StageHotPub,
		// Unannotated traffic: on this commit the anchor-replica reads and
		// upserts of a replicated cluster.
		fabric.StageNone,
	}
	byteStages = []fabric.Stage{
		fabric.StageLeafRead, fabric.StageLeafSpec, fabric.StageHotRead, fabric.StageLeafWrite, fabric.StageScan,
	}
)

const (
	readPath  = "rt_per_op, virt_lat_mean_us, virt_tput_mops on read-cold, mixed-zipf; not read-warm"
	writePath = "virt_tput_mops, rt_per_op, wall_tput_kops on load, mixed-zipf; setup_s everywhere; not the read workloads"
	simSpeed  = "wall_tput_kops on all workloads; every virtual metric identical"
	wrapper   = "wall_tput_kops, allocs_per_op on read-warm; no virt metric anywhere"
	hotLayer  = "virt_tput_mops vs rt_per_op, mn_bytes_per_key on skew-ft-hot; 0 elsewhere"
	contend   = "virt_lat_mean_us, reissued_op_share, failed_op_share on mixed-zipf (a reader meeting a writer); 0 on load"
	collide   = "nothing on this commit: no key has two writers, so 0 everywhere; a rise means writers collide that did not, and shows in virt_lat_mean_us on mixed-zipf, skew-ft-hot"
	footprint = "mn_bytes_per_key on load, mixed-zipf"
	hostCost  = "wall_tput_kops on mixed-zipf"
)

// perLayer lists every per-layer metric of a traced run, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		// core: boundary counters of Session.SphinxStats, as shares of Gets
		// or rates per operation.
		{name: "core.lac_hit_share", unit: "ratio", better: "higher", moves: readPath},
		{name: "core.lac_miss_share", unit: "ratio", better: "lower", moves: readPath},
		{name: "core.lac_refute_share", unit: "ratio", better: "lower", moves: contend},
		{name: "core.lac_abort_share", unit: "ratio", better: "lower", moves: contend},
		{name: "core.sfc_hit_share", unit: "ratio", better: "higher", moves: readPath},
		{name: "core.sfc_fallback_share", unit: "ratio", better: "lower", moves: readPath},
		{name: "core.root_start_share", unit: "ratio", better: "lower", moves: readPath},
		{name: "core.fp_per_kop", unit: "1/kop", better: "lower", moves: readPath},
		{name: "core.collision_per_mop", unit: "1/Mop", better: "lower", moves: readPath},
		{name: "core.restart_per_kop", unit: "1/kop", better: "lower", moves: collide},
		{name: "core.hot_hit_share", unit: "ratio", better: "higher", moves: hotLayer},
		{name: "core.hot_refute_share", unit: "ratio", better: "lower", moves: hotLayer},
		{name: "core.hot_promotes", unit: "count", better: "lower", moves: hotLayer},
		{name: "core.hot_demotes", unit: "count", better: "lower", moves: hotLayer},
		{name: "core.hot_refreshes", unit: "count", better: "lower", moves: hotLayer},
		{name: "core.epoch_fallbacks", unit: "count", better: "lower", moves: "none: membership is static in every workload, must be 0"},
	}
	for _, s := range rtStages {
		moves := readPath
		switch s {
		case fabric.StageLock, fabric.StageAlloc, fabric.StageLeafWrite, fabric.StageNodeWrite,
			fabric.StageInstall, fabric.StagePublish, fabric.StageUnlock:
			moves = writePath
		case fabric.StageHotRead, fabric.StageHotPub, fabric.StageNone:
			moves = hotLayer
		case fabric.StageScan:
			moves = "rt_per_op, net_bytes_per_op on mixed-zipf"
		}
		ms = append(ms, metric{name: "fabric.rt_per_op." + s.String(), unit: "count", better: "lower", moves: moves})
	}
	for _, s := range byteStages {
		ms = append(ms, metric{name: "fabric.bytes_per_op." + s.String(), unit: "B", better: "lower", moves: "net_bytes_per_op"})
	}
	return append(ms, []metric{
		{name: "fabric.nic_busy_share_max", unit: "ratio", better: "lower", moves: hotLayer},
		{name: "fabric.nic_wait_share_max", unit: "ratio", better: "lower", moves: hotLayer},
		{name: "fabric.mn_imbalance", unit: "ratio", better: "lower", moves: hotLayer},
		{name: "fabric.batch1_read64_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "fabric.batch1_read64_contended_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "fabric.batch3_read_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "fabric.cas_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "fabric.write128_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "fabric.est_ns_per_op", unit: "ns", better: "lower", moves: simSpeed},

		{name: "mem.inner_bytes_per_key", unit: "B", better: "lower", moves: footprint},
		{name: "mem.leaf_bytes_per_key", unit: "B", better: "lower", moves: footprint},
		{name: "mem.hash_bytes_per_key", unit: "B", better: "lower", moves: footprint},
		{name: "mem.meta_bytes_per_key", unit: "B", better: "lower", moves: footprint},
		{name: "mem.region_read64_ns", unit: "ns", better: "lower", moves: simSpeed},
		{name: "mem.region_cas_ns", unit: "ns", better: "lower", moves: simSpeed},

		{name: "obs.tail_captured_share", unit: "ratio", better: "lower", moves: wrapper},
		{name: "obs.observe_op_ns", unit: "ns", better: "lower", moves: wrapper},
		{name: "obs.observe_batch_ns", unit: "ns", better: "lower", moves: wrapper},
		{name: "obs.allocs_per_op", unit: "count", better: "lower", moves: wrapper},

		{name: "session.op_ns_p50", unit: "ns", better: "lower", moves: "wall_tput_kops on all workloads"},
		{name: "session.rt_p50", unit: "count", better: "lower", moves: "virt_lat_mean_us"},
		{name: "session.rt_p99", unit: "count", better: "lower", moves: "virt_lat_mean_us"},
		{name: "session.rt_p999", unit: "count", better: "lower", moves: "virt_lat_mean_us"},
		{name: "session.reissued_per_mop", unit: "1/Mop", better: "lower", moves: contend},
		{name: "session.self_ns_per_op", unit: "ns", better: "lower", moves: wrapper},
		{name: "session.self_allocs_per_op", unit: "count", better: "lower", moves: wrapper},

		{name: "core.op_ns_p50", unit: "ns", better: "lower", moves: "wall_tput_kops on all workloads"},
		{name: "core.op_ns_p99", unit: "ns", better: "lower", moves: "wall_tput_kops on all workloads"},
		{name: "core.allocs_per_op", unit: "count", better: "lower", moves: "allocs_per_op on all workloads"},
		{name: "core.self_ns_per_op_est", unit: "ns", better: "lower", moves: "wall_tput_kops on all workloads"},

		{name: "cuckoo.load_factor", unit: "ratio", better: "higher", moves: readPath},
		{name: "cuckoo.evictions_per_kop", unit: "1/kop", better: "lower", moves: readPath},
		{name: "cuckoo.kick_drops_per_mop", unit: "1/Mop", better: "lower", moves: readPath},
		{name: "cuckoo.contains_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold"},
		{name: "cuckoo.insert_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold"},

		{name: "racehash.retry_reads_per_kop", unit: "1/kop", better: "lower", moves: readPath},
		{name: "racehash.splits", unit: "count", better: "lower", moves: writePath},
		{name: "racehash.refreshes_per_kop", unit: "1/kop", better: "lower", moves: readPath},
		{name: "racehash.load_factor", unit: "ratio", better: "higher", moves: footprint},
		{name: "racehash.lookup_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold, load"},
		{name: "racehash.insert_ns", unit: "ns", better: "lower", moves: writePath},

		{name: "rart.lock_steals", unit: "count", better: "lower", moves: collide},
		{name: "rart.leaf_breaks", unit: "count", better: "lower", moves: collide},
		{name: "rart.publish_retries", unit: "count", better: "lower", moves: collide},
		{name: "rart.search_root_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold"},
		{name: "rart.put_root_ns", unit: "ns", better: "lower", moves: writePath},

		{name: "wire.prefixhash_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold, load; no virt metric"},
		{name: "wire.leaf_encode_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold, load; no virt metric"},
		{name: "wire.leaf_decode_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold, load; no virt metric"},
		{name: "consistenthash.owner_ns", unit: "ns", better: "lower", moves: "wall_tput_kops on read-cold, load; no virt metric"},

		{name: "host.wall_tput_kops", unit: "kops/s", better: "higher", moves: "the untraced quarters' median slice rate: wall_tput_kops of a shorter run"},
		{name: "host.sim_slowdown", unit: "ratio", better: "lower", moves: simSpeed},
		{name: "host.gc_cycles", unit: "count", better: "lower", moves: hostCost},
		{name: "host.gc_pause_ms", unit: "ms", better: "lower", moves: hostCost},
		{name: "host.peak_rss_mb", unit: "MB", better: "lower", moves: hostCost},
		{name: "host.wall_lat_p99_us", unit: "us", better: "lower", moves: hostCost},
		{name: "host.trace_overhead_pct", unit: "%", better: "lower", moves: "none: the cost of the benchmark's own spans"},
	}...)
}
