package bench

import (
	"sync/atomic"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
)

// Live is the harness's cluster-spanning observability surface: one
// metric set, index-distribution set and tail sampler that every cluster
// the harness creates feeds for its whole lifetime, servable over HTTP
// while experiments run (sphinxbench -serve). Per-phase Result sections
// are unaffected — they diff against phase baselines; Live accumulates.
//
// Experiments create clusters one after another; the gauge sources (SFC
// load, INHT usage) read through the most recent Sphinx-family cluster,
// which is the one currently running.
type Live struct {
	Metrics *obs.Metrics
	Index   *obs.IndexMetrics
	Tail    *obs.TailSampler
	// Plane is the cluster observability plane behind /mn, /slo and
	// /alerts: per-MN windowed load series, SLO burn rates over the live
	// histograms, and the default alert rules. Its collector follows the
	// current cluster like the gauge sources do; -serve mode ticks it
	// from a wall-clock sampler.
	Plane *obs.Plane

	reg *obs.Registry
	cur atomic.Pointer[Cluster]
}

// NewLive creates the live telemetry surface. Pass it via Config.Live to
// every cluster that should report into it.
func NewLive() *Live {
	lv := &Live{
		Metrics: obs.NewMetrics(),
		Index:   obs.NewIndexMetrics(),
		Tail:    obs.NewTailSampler(0, 0),
	}
	// The read-p99 objective is deliberately loose for a simulated
	// fabric (25 µs); it exists so /slo and the burn-rate alerts have a
	// live series to chew on, not as a tuned production target.
	lv.Plane, _ = obs.NewPlane(obs.PlaneOptions{
		Collect: func() []obs.MNSample {
			if cl := lv.cur.Load(); cl != nil {
				return cl.collectMNs()
			}
			return nil
		},
		Latency: func(k obs.OpKind) obs.HistSnapshot { return lv.Metrics.OpLatency(k) },
		SLOs: []obs.SLO{
			{Name: "read-p99", Op: obs.OpGet, Quantile: 0.99, LatencyPs: 25_000_000},
		},
	})
	return lv
}

// attach points the gauge sources at a newly created cluster.
func (lv *Live) attach(cl *Cluster) {
	if len(cl.filters) > 0 {
		lv.cur.Store(cl)
	}
}

// Registry assembles (once) the registry behind /metrics and /snapshot:
// the live histograms, index distributions, tail counters, the plane, and
// the index layers' families (core.RegisterIndex — the same assembly a
// session exports) following the current cluster. Every source is
// scrape-safe concurrently with running workers: the client counters are
// loaded atomically and move while a phase runs (Cluster.liveIndex), filter
// cache stats are padded atomics (lock-free SFC), and INHT usage scans go
// through the region locks.
func (lv *Live) Registry() *obs.Registry {
	if lv.reg != nil {
		return lv.reg
	}
	r := obs.NewRegistry()
	r.AddMetrics("bench", lv.Metrics)
	lv.Index.Register(r)
	lv.Plane.Register(r)
	r.AddCounters("tail", lv.Tail.Counters)
	core.RegisterIndex(r, func() *core.IndexSources {
		if cl := lv.cur.Load(); cl != nil {
			return cl.src
		}
		return nil
	})
	lv.reg = r
	return r
}

// SFCBlock is the per-phase succinct-filter-cache efficacy section of a
// result's metrics: where locates landed in the prefix walk, how the
// measured false-positive rate compares to the cuckoo filter's analytic
// bound, and (for read-only sequential phases) whether every false
// positive reconciles against an extra hash-read-stage round trip.
type SFCBlock struct {
	// HitDepth is the distribution of the longest-prefix-hit depth (key
	// bytes matched) over filter-resolved locates; Probes is the local
	// filter probes spent per locate.
	HitDepth HistJSON `json:"hit_depth"`
	Probes   HistJSON `json:"probes"`

	Load          float64 `json:"load"`
	OccupiedSlots uint64  `json:"occupied_slots"`
	CapacitySlots uint64  `json:"capacity_slots"`

	FilterHits     uint64 `json:"filter_hits"`
	FalsePositives uint64 `json:"false_positives"`
	// Evictions and HotMarks are this phase's share of eviction and
	// hotness-bit churn across the CN filter caches.
	Evictions uint64 `json:"evictions,omitempty"`
	HotMarks  uint64 `json:"hot_marks,omitempty"`

	MeasuredFPRate  float64 `json:"measured_fp_rate"`
	AnalyticFPBound float64 `json:"analytic_fp_bound"`

	// FPReconciled is set for read-only depth-1 phases: true iff hash
	// lookups == filter hits + false positives − node hits (a landing at a
	// remembered node address is a filter hit with no lookup; a refuted or
	// untrusted one asks the table and counts as what the table says) AND
	// the hash-read stage's round trips == lookups + stale-directory retries
	// + 2×refreshes — i.e. every false positive shows up as exactly one extra
	// hash-entry round trip (DESIGN.md §5.9). Absent when the phase wrote,
	// restarted or ran pipelined (coalescing shares round trips across ops).
	FPReconciled *bool `json:"fp_reconciled,omitempty"`
}

// INHTBlock is the per-phase inner-node-hash-table section: structural
// load from an MN-side scan plus this phase's lookup/maintenance
// counters.
type INHTBlock struct {
	// Candidates is the distribution of fingerprint-matching candidates
	// per lookup (>1 means fingerprint collisions bought wasted reads).
	Candidates HistJSON `json:"candidates"`

	LoadFactor      float64 `json:"load_factor"`
	Entries         uint64  `json:"entries"`
	CapacityEntries uint64  `json:"capacity_entries"`
	Segments        uint64  `json:"segments"`
	DirEntries      uint64  `json:"dir_entries"`

	Lookups         uint64 `json:"lookups"`
	RetryReads      uint64 `json:"retry_reads,omitempty"`
	Refreshes       uint64 `json:"refreshes,omitempty"`
	StaleEntries    uint64 `json:"stale_entries,omitempty"`
	FPMismatches    uint64 `json:"fp_mismatches,omitempty"`
	BucketOverflows uint64 `json:"bucket_overflows,omitempty"`
	Splits          uint64 `json:"splits,omitempty"`
}

// LACBlock is the per-phase leaf-address-cache efficacy section of a
// result's metrics: how warm-read speculation performed (one-RT hits vs
// misses, refutes and aborts), the cache's maintenance churn, and (for
// read-only sequential phases) whether the speculative round trips
// reconcile exactly against the fabric's counters.
type LACBlock struct {
	// SpecHits..SpecAborts are this phase's speculative-read outcomes:
	// hits served in one verified round trip, misses that went straight
	// to the hash path, refutes that unlearned a stale entry and fell
	// back, and aborts (unstable leaf image or transient fabric error)
	// that fell back without unlearning.
	SpecHits    uint64 `json:"spec_hits"`
	SpecMisses  uint64 `json:"spec_misses"`
	SpecRefutes uint64 `json:"spec_refutes,omitempty"`
	SpecAborts  uint64 `json:"spec_aborts,omitempty"`
	// HitRate is hits over all speculative decisions (hits + misses +
	// refutes + aborts).
	HitRate float64 `json:"hit_rate"`
	// SpecUpdHits..SpecUpdAborts are the same four outcomes for this
	// phase's speculative in-place writes (Puts and Updates through a cached
	// leaf address: lock + verify in one batch, then the releasing WRITE).
	SpecUpdHits    uint64 `json:"spec_upd_hits,omitempty"`
	SpecUpdMisses  uint64 `json:"spec_upd_misses,omitempty"`
	SpecUpdRefutes uint64 `json:"spec_upd_refutes,omitempty"`
	SpecUpdAborts  uint64 `json:"spec_upd_aborts,omitempty"`
	// Learns/Unlearns/Evictions are this phase's share of cache
	// maintenance across the CN leaf-address caches.
	Learns    uint64 `json:"learns,omitempty"`
	Unlearns  uint64 `json:"unlearns,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`

	Occupancy     float64 `json:"occupancy"`
	OccupiedSlots uint64  `json:"occupied_slots"`
	CapacitySlots uint64  `json:"capacity_slots"`
	// FullBuckets is how many 8-way buckets have no empty way left: a learn
	// into one displaces a live entry (Evictions). Misses with none full are
	// keys not yet learned, not a cache that is too small.
	FullBuckets uint64 `json:"full_buckets,omitempty"`
	SizeBytes   uint64 `json:"size_bytes"`

	// LACReconciled is set for read-only depth-1 phases: true iff the
	// leaf-spec stage's round trips == speculative hits + refutes (every
	// speculative read is exactly one RT, and a healthy read-only phase
	// never aborts), no remembered node address was met leased, AND hash +
	// node + leaf + leaf-spec stage round trips == the fabric's own counter
	// — i.e. every fallback re-descent (a refuted node address's wasted
	// node read included) is fully accounted and the fast path never
	// double-pays. Absent when the phase wrote, restarted or ran pipelined.
	LACReconciled *bool `json:"lac_reconciled,omitempty"`
}

// HotBlock is the per-phase hot read-replication section of a result's
// metrics: how the hotness-driven replica read path performed (verified
// 1-RT hits vs refutations of retired record images), the promotion and
// write-refresh churn, and (for read-only depth-1 phases) whether the
// hot-read round trips reconcile exactly against the fabric's counters.
type HotBlock struct {
	// HotHits..HotAborts are this phase's replica-read outcomes: hits
	// served in one verified round trip, refutations that unlearned a
	// stale route and fell back, and aborts (transient fabric errors)
	// that fell back without a verdict.
	HotHits    uint64 `json:"hot_hits"`
	HotRefutes uint64 `json:"hot_refutes,omitempty"`
	HotAborts  uint64 `json:"hot_aborts,omitempty"`
	// Promotes/Demotes/Refreshes are the layer's maintenance churn:
	// keys promoted into replicated placement, demoted back out, and
	// writes that republished at least one hot record. Declined counts
	// promotions the fabric's contention verdict turned down.
	Promotes  uint64 `json:"promotes,omitempty"`
	Demotes   uint64 `json:"demotes,omitempty"`
	Refreshes uint64 `json:"refreshes,omitempty"`
	Declined  uint64 `json:"declined,omitempty"`
	// HitRate is hits over all replica-read attempts.
	HitRate float64 `json:"hit_rate"`
	// TrackerBytes is the CN hot-key trackers' total footprint.
	TrackerBytes uint64 `json:"tracker_bytes,omitempty"`

	// HotReconciled is set for read-only depth-1 phases: true iff the
	// hot-read stage's round trips == replica-read hits + refutations
	// (every attempt is exactly one verified RT — never a wrong value,
	// never a double-pay) with zero aborts. The full-sum check lives in
	// LACReconciled, whose stage sum includes the hot stages.
	HotReconciled *bool `json:"hot_reconciled,omitempty"`
}

// nicBase snapshots the per-MN NIC counters at phase start (the window
// baseline for attachMNShares), or nil when metrics are off.
func (cl *Cluster) nicBase() []fabric.NICStats {
	if !cl.Cfg.Metrics {
		return nil
	}
	return cl.F.NICStats()
}

// MNShare is one memory node's slice of a measurement window's fabric
// round trips, with the NIC busy/queued-wait time that round-trip load
// produced (the hotspot signal the contention-aware replica choice
// steers by).
type MNShare struct {
	Node       int     `json:"node"`
	RoundTrips uint64  `json:"round_trips"`
	Share      float64 `json:"share"`
	BusyPs     int64   `json:"busy_ps,omitempty"`
	WaitPs     int64   `json:"wait_ps,omitempty"`
}

// attachMNShares diffs the per-MN NIC counters against the phase-start
// baseline and attaches the window's shares plus the normalized
// max/mean imbalance scalar (computed over current member nodes, so a
// killed or drained node does not deflate the mean).
func (cl *Cluster) attachMNShares(r *Result, base []fabric.NICStats) {
	if base == nil {
		return
	}
	cur := cl.F.NICStats()
	baseByNode := make(map[mem.NodeID]fabric.NICStats, len(base))
	for _, b := range base {
		baseByNode[b.Node] = b
	}
	members := make(map[mem.NodeID]bool)
	for _, n := range cl.memberNodes() {
		members[n] = true
	}
	var total, maxMemberRT uint64
	shares := make([]MNShare, 0, len(cur))
	for _, st := range cur {
		b := baseByNode[st.Node]
		rt := st.RoundTrips - b.RoundTrips
		total += rt
		if members[st.Node] && rt > maxMemberRT {
			maxMemberRT = rt
		}
		if rt == 0 && !members[st.Node] {
			continue
		}
		shares = append(shares, MNShare{
			Node:       int(st.Node),
			RoundTrips: rt,
			BusyPs:     st.BusyPs - b.BusyPs,
			WaitPs:     st.WaitPs - b.WaitPs,
		})
	}
	if total == 0 {
		return
	}
	for i := range shares {
		shares[i].Share = float64(shares[i].RoundTrips) / float64(total)
	}
	r.MNShares = shares
	if n := len(members); n > 0 {
		mean := float64(total) / float64(n)
		r.MNImbalance = float64(maxMemberRT) / mean
	}
}

// placement returns the current placement — the epoch-versioned ring and
// hash tables when the system publishes them (elastic membership may have
// added or drained nodes since bootstrap), the static bootstrap ring and
// no tables for the baselines.
func (cl *Cluster) placement() *core.Placement {
	if m := cl.sphinxShared.Members; m != nil {
		return m.Current()
	}
	return &core.Placement{Ring: cl.Ring}
}

// memberNodes returns the memory nodes of the current placement.
func (cl *Cluster) memberNodes() []mem.NodeID { return cl.placement().Ring.Nodes() }

// collectMNs samples every memory node for the observability plane.
func (cl *Cluster) collectMNs() []obs.MNSample {
	p := cl.placement()
	return obs.CollectMNs(cl.F, p.Ring.Nodes(), p.Tables)
}

// attachIndexBlocks fills the result's SFC and INHT sections from the
// phase deltas.
func (cl *Cluster) attachIndexBlocks(r *Result, t tally) {
	if !t.sphinx || r.Metrics == nil || cl.index == nil {
		return
	}
	coreAgg, hashAgg := t.core, t.hash
	// The three *_reconciled identities below hold only for sequential
	// read-only phases on a healthy index: writes, scans and restarts add
	// stage traffic of their own, and pipelining coalesces many ops into
	// shared round trips. Other phases carry no verdict.
	exact := cl.runMetrics != nil && r.Depth == 1 &&
		coreAgg.Inserts == 0 && coreAgg.Updates == 0 && coreAgg.Deletes == 0 &&
		coreAgg.Scans == 0 && coreAgg.Restarts == 0 && coreAgg.StaleEntries == 0

	inht := &INHTBlock{
		Candidates:      histJSON(cl.index.INHTCandidates.Snapshot().Sub(cl.candBase), 1),
		Lookups:         hashAgg.Lookups,
		RetryReads:      hashAgg.RetryReads,
		Refreshes:       hashAgg.Refreshes,
		StaleEntries:    coreAgg.StaleEntries,
		FPMismatches:    coreAgg.FPMismatches,
		BucketOverflows: hashAgg.BucketOverflows,
		Splits:          hashAgg.Splits,
	}
	u, _ := cl.src.INHTUsage()
	inht.LoadFactor = u.LoadFactor()
	inht.Entries = u.Entries
	inht.CapacityEntries = u.Capacity
	inht.Segments = u.Segments
	inht.DirEntries = u.DirEntries
	r.Metrics.INHT = inht

	// Leaf-address-cache section (absent for the SphinxNoLAC ablation).
	if len(cl.lacs) > 0 {
		lacSt := cl.src.LACStats()
		occupied, capacity, full, _, bytes, _ := cl.src.LACOccupancy()
		lac := &LACBlock{
			SpecHits:    coreAgg.SpecHits,
			SpecMisses:  coreAgg.SpecMisses,
			SpecRefutes: coreAgg.SpecRefutes,
			SpecAborts:  coreAgg.SpecAborts,
			SpecUpdHits: coreAgg.SpecUpdHits, SpecUpdMisses: coreAgg.SpecUpdMisses,
			SpecUpdRefutes: coreAgg.SpecUpdRefutes, SpecUpdAborts: coreAgg.SpecUpdAborts,
			Learns:        lacSt.Learns - cl.lacBase.Learns,
			Unlearns:      lacSt.Unlearns - cl.lacBase.Unlearns,
			Evictions:     lacSt.Evictions - cl.lacBase.Evictions,
			OccupiedSlots: occupied,
			CapacitySlots: capacity,
			FullBuckets:   full,
			SizeBytes:     bytes,
		}
		if probes := coreAgg.SpecHits + coreAgg.SpecMisses + coreAgg.SpecRefutes + coreAgg.SpecAborts; probes > 0 {
			lac.HitRate = float64(coreAgg.SpecHits) / float64(probes)
		}
		if capacity > 0 {
			lac.Occupancy = float64(occupied) / float64(capacity)
		}
		// Every speculative read costs exactly one leaf-spec round trip
		// (hit or refute, never an abort), and the read stages — plus
		// the hot-replica read and maintenance stages when the hot layer
		// is on — sum to the fabric's own counter.
		if exact {
			specRT := cl.runMetrics.StageRT(fabric.StageLeafSpec).Sum
			hashRT := cl.runMetrics.StageRT(fabric.StageHashRead).Sum
			nodeRT := cl.runMetrics.StageRT(fabric.StageNodeRead).Sum
			leafRT := cl.runMetrics.StageRT(fabric.StageLeafRead).Sum
			hotRT := cl.runMetrics.StageRT(fabric.StageHotRead).Sum +
				cl.runMetrics.StageRT(fabric.StageHotPub).Sum
			ok := specRT == coreAgg.SpecHits+coreAgg.SpecRefutes &&
				coreAgg.SpecAborts == 0 && coreAgg.NodeAborts == 0 &&
				hashRT+nodeRT+leafRT+specRT+hotRT == r.Metrics.FabricRoundTrips
			lac.LACReconciled = &ok
		}
		r.Metrics.LAC = lac
	}

	// Hot read-replication section (absent unless the layer was
	// bootstrapped for this cluster).
	if cl.sphinxShared.Hot != nil {
		hot := &HotBlock{
			HotHits:    coreAgg.HotHits,
			HotRefutes: coreAgg.HotRefutes,
			HotAborts:  coreAgg.HotAborts,
			Promotes:   coreAgg.HotPromotes,
			Demotes:    coreAgg.HotDemotes,
			Refreshes:  coreAgg.HotRefreshes,
			Declined:   coreAgg.HotDeclined,
		}
		if attempts := coreAgg.HotHits + coreAgg.HotRefutes + coreAgg.HotAborts; attempts > 0 {
			hot.HitRate = float64(coreAgg.HotHits) / float64(attempts)
		}
		for _, hs := range cl.hotsets {
			hot.TrackerBytes += hs.SizeBytes()
		}
		// Trust-but-verify accounting: every hot-read stage round trip
		// must be exactly one verified hit or one refutation.
		if exact {
			hotReadRT := cl.runMetrics.StageRT(fabric.StageHotRead).Sum
			ok := hotReadRT == coreAgg.HotHits+coreAgg.HotRefutes &&
				coreAgg.HotAborts == 0
			hot.HotReconciled = &ok
		}
		r.Metrics.Hot = hot
	}

	// The filter-less ablation allocates no filter traffic even though
	// the CN filter caches exist; it gets no SFC section.
	if len(cl.filters) == 0 || cl.Sys == SphinxNoSFC {
		return
	}
	fst := cl.src.FilterStats()
	probes := fst.Hits + fst.Misses - cl.filterBase.Hits - cl.filterBase.Misses
	occupied, capacity, load, bound := cl.src.FilterOccupancy()
	sfc := &SFCBlock{
		HitDepth:        histJSON(cl.index.SFCHitDepth.Snapshot().Sub(cl.hitDepthBase), 1),
		Probes:          histJSON(cl.index.SFCProbes.Snapshot().Sub(cl.probesBase), 1),
		Load:            load,
		OccupiedSlots:   occupied,
		CapacitySlots:   capacity,
		FilterHits:      coreAgg.FilterHits,
		FalsePositives:  coreAgg.FalsePositives,
		Evictions:       fst.Evictions - cl.filterBase.Evictions,
		HotMarks:        fst.HotMarks - cl.filterBase.HotMarks,
		AnalyticFPBound: bound,
	}
	if probes > 0 {
		sfc.MeasuredFPRate = float64(coreAgg.FalsePositives) / float64(probes)
	}
	// Every false positive shows up as exactly one extra hash-entry round
	// trip.
	if exact {
		hashRT := cl.runMetrics.StageRT(fabric.StageHashRead).Sum
		wantRT := hashAgg.Lookups + hashAgg.RetryReads + 2*hashAgg.Refreshes
		ok := hashAgg.Lookups == coreAgg.FilterHits+coreAgg.FalsePositives-coreAgg.NodeHits &&
			hashRT == wantRT
		sfc.FPReconciled = &ok
	}
	r.Metrics.SFC = sfc
}
