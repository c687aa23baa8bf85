package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sphinx"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

const (
	// setupRuns is how many times a run sets the workload up; setup_s is the
	// median, which one slow page-fault storm or GC cycle does not move.
	setupRuns = 3
	// ladderOps caps L, the ops per driver of a traced replay (2L are run
	// on each rung, half of them traced).
	ladderOps = 200_000
	// spanKeep is how many spans per driver and rung are kept for the file.
	spanKeep = 20_000
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// runEndToEnd is the untraced run of one workload: set up (several times,
// for a steady setup_s), measure every operation of the stream through the
// public API, read everything back.
func runEndToEnd(sp *spec, seed int64, z sizes) (*workloadReport, error) {
	var e *env
	var st *sessionStack
	var times []float64
	var attempted, failed uint64
	// Earlier set-ups stay reachable until the last one is done, so that each
	// builds its cluster on fresh zero pages, as the first one and a real
	// start do. Were they freed, the runtime would hand their memory to the
	// next cluster and clear it by hand (768 MiB, 0.4 s, and the part of
	// set-up a busy host slows most): a cost of repeating, not of set-up.
	var earlier []*sessionStack
	for i := 0; i < z.setups; i++ {
		earlier = append(earlier, st)
		runtime.GC() // the previous set-up's garbage, outside the timed one
		t0 := time.Now()
		var err error
		if e, st, err = setupSession(sp, seed, z); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		attempted, failed = attempted+e.attempted, failed+e.failed
	}
	runtime.KeepAlive(earlier)
	runtime.GC() // now they go, before the measured phase
	p := e.runPhase(0, e.opsPerDriver(), nil)
	fmt.Printf("# %s; set-ups %.2f s; slice rates %.1f kops/s\n", e, times, p.sliceKops)

	mu, err := st.cl.MemoryUsage()
	if err != nil {
		return nil, err
	}
	var cnBytes uint64
	for _, cn := range st.cns {
		cnBytes += cn.CacheBytes()
	}
	checked, bad := e.verify()
	attempted, failed = attempted+p.ops+checked, failed+p.failed+bad

	wr := newWorkloadReport(e, attempted, failed)
	set := func(name string, v float64, n uint64) {
		m := findMetric(endToEnd, name)
		wr.Metrics[name] = value{Value: v, Unit: m.unit, N: n, Unresolved: m.wall && runtime.GOMAXPROCS(0) < e.drivers}
	}
	set("setup_s", median(times), uint64(len(times)))
	set("virt_tput_mops", float64(p.ops)/(float64(p.virtMaxPs)/1e12)/1e6, 0)
	set("virt_lat_mean_us", p.virt.mean()/1e6, p.virt.n)
	set("rt_per_op", p.perOp(p.net.rts), 0)
	set("verbs_per_op", p.perOp(p.net.verbs), 0)
	set("net_bytes_per_op", p.perOp(p.net.bytes), 0)
	set("mn_bytes_per_key", float64(mu.TotalBytes)/float64(e.liveKeys()), 0)
	set("cn_cache_bytes", float64(cnBytes), 0)
	set("allocs_per_op", p.perOp(p.mallocs), 0)
	set("alloc_bytes_per_op", p.perOp(p.allocBytes), 0)
	wr.Metrics[wallTput] = value{Value: p.tputKops(), Unit: "kops/s", N: slices, Unresolved: runtime.GOMAXPROCS(0) < e.drivers}
	wr.Metrics[reissuedShare] = value{Value: p.perOp(p.reissued), Unit: "ratio", N: p.ops}
	return wr, nil
}

func newWorkloadReport(e *env, attempted, failed uint64) *workloadReport {
	return &workloadReport{
		Name: e.sp.name, Drivers: e.drivers, StreamHash: fmt.Sprintf("%016x", e.hash),
		Attempted: attempted, Failed: failed, Metrics: map[string]value{
			failedShare: {Value: float64(failed) / float64(attempted), Unit: "ratio", N: attempted},
		},
	}
}

func findMetric(defs []metric, name string) metric {
	for _, m := range defs {
		if m.name == name {
			return m
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// sessionCounters sums, over every session of the run, the counters the
// program exports at the session boundary.
type sessionCounters struct {
	Sphinx            sphinx.SphinxCounters
	StageRT           [fabric.NumStages]uint64
	StageBytes        [fabric.NumStages]uint64
	Offered, Captured uint64
}

func readSessionCounters(ss []*sphinx.Session) sessionCounters {
	var c sessionCounters
	for _, s := range ss {
		st, _ := s.SphinxStats()
		c.Sphinx = addCounters(c.Sphinx, st)
		for stage := 0; stage < fabric.NumStages; stage++ {
			c.StageRT[stage] += s.Metrics().StageRT(fabric.Stage(stage)).Sum
			_, b, _ := s.Metrics().StageCounters(fabric.Stage(stage))
			c.StageBytes[stage] += b
		}
		offered, captured := s.Tail().Stats()
		c.Offered, c.Captured = c.Offered+offered, c.Captured+captured
	}
	return c
}

// coreCounters sums what is only visible one rung down.
type coreCounters struct {
	Filter  cuckoo.Stats
	Hash    racehash.Stats
	Engine  rart.EngineStats
	Batches [fabric.NumStages]uint64
}

func readCoreCounters(st *coreStack) coreCounters {
	var c coreCounters
	for _, f := range st.filters {
		c.Filter = addCounters(c.Filter, f.FilterStats())
	}
	for _, t := range st.ts {
		c.Hash = c.Hash.Add(t.c.HashStats())
		c.Engine = c.Engine.Add(t.c.Engine().Stats())
		c.Batches = addCounters(c.Batches, t.log.batches)
	}
	return c
}

// addCounters and subCounters return a+b and a−b over every uint64 field and
// array element of a counter struct: counters are summed over sessions, read
// cumulative and reported as deltas.
func addCounters[T any](a, b T) T {
	fold(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), false)
	return a
}

func subCounters[T any](a, b T) T {
	fold(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), true)
	return a
}

func fold(a, b reflect.Value, minus bool) {
	switch a.Kind() {
	case reflect.Uint64:
		if minus {
			a.SetUint(a.Uint() - b.Uint())
		} else {
			a.SetUint(a.Uint() + b.Uint())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			fold(a.Field(i), b.Field(i), minus)
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			fold(a.Index(i), b.Index(i), minus)
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// nsPerOp is the driver time one op took in a phase: the call, the checks
// and the loop around it, every pause included.
func nsPerOp(p *phase) float64 { return p.driverNs / float64(p.ops) }

// unitCost names the unit driver whose call is closest to one batch of a
// stage, for fabric.est_ns_per_op.
func unitCost(s fabric.Stage) string {
	switch s {
	case fabric.StageHashRead:
		return "fabric.batch3_read_ns"
	case fabric.StageLock, fabric.StageAlloc, fabric.StageInstall, fabric.StagePublish, fabric.StageUnlock, fabric.StageHotPub:
		return "fabric.cas_ns"
	case fabric.StageLeafWrite, fabric.StageNodeWrite:
		return "fabric.write128_ns"
	default:
		return "fabric.batch1_read64_ns"
	}
}

// runTraced is the traced run of one workload. On the session rung it runs
// the first 2L ops per driver in alternating traced and untraced quarters
// (every traced call is a span; the ratio of the two halves is the tracing
// overhead); on the core rung it replays the same ops the same way on an
// identically seeded cluster; then it times each layer's entry points alone.
// No end-to-end metric is taken here.
func runTraced(sp *spec, seed int64, z sizes, outDir string) (*workloadReport, error) {
	e, st, err := setupSession(sp, seed, z)
	if err != nil {
		return nil, err
	}
	// Four replays of L ops (two per rung) take about two thirds of the
	// time the untraced run measures for.
	L := z.scaled(ladderOps, 50)
	if sixth := e.opsPerDriver() / 6; L > sixth {
		L = sixth
	}
	keep := z.scaled(spanKeep, 50)

	maxClock := func() (ps int64) {
		for _, s := range st.ss {
			if c := s.Stats().ClockPs; c > ps {
				ps = c
			}
		}
		return ps
	}
	st.cl.SampleObservability(maxClock())
	c0 := readSessionCounters(st.ss)
	rec := newRecorder("session", e.drivers, keep)
	T, U := e.runAlternating(L, rec)
	c1 := readSessionCounters(st.ss)
	st.cl.SampleObservability(maxClock())
	rows := st.cl.Observability().Nodes
	mu, err := st.cl.MemoryUsage()
	if err != nil {
		return nil, err
	}
	live := float64(e.liveKeys())
	checked, bad := e.verify()
	attempted := e.attempted + T.ops + U.ops + checked
	failed := e.failed + T.failed + U.failed + bad

	// One rung down. The session rung's cluster is done with: let it go
	// before the next one is built.
	cfgBytes := sp.config(len(e.ks.keys), seed).CacheBytes
	e.targets, st = nil, nil
	runtime.GC()
	ce, cst, err := setupCore(sp, seed, z)
	if err != nil {
		return nil, err
	}
	logs := make([][]*batchLog, ce.drivers)
	for d, ts := range ce.targets {
		for _, t := range ts {
			l := t.(*coreTarget).log
			*l = batchLog{keep: 8 * keep}
			logs[d] = append(logs[d], l)
		}
	}
	k0 := readCoreCounters(cst)
	crec := newRecorder("core", ce.drivers, keep)
	C, CU := ce.runAlternating(L, crec)
	dk := subCounters(readCoreCounters(cst), k0)
	checked, bad = ce.verify()
	attempted += ce.attempted + C.ops + CU.ops + checked
	failed += ce.failed + C.failed + CU.failed + bad
	if ce.hash != e.hash {
		return nil, fmt.Errorf("ladder: the two rungs were given different operations")
	}

	wr := newWorkloadReport(e, attempted, failed)
	set := func(name string, v float64, n uint64) {
		m := findMetric(perLayer, name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		wr.Metrics[name] = value{Value: v, Unit: m.unit, N: n}
	}

	// Source 1: boundary counters, as deltas over the session phases.
	ops := T.ops + U.ops
	dc := subCounters(c1, c0)
	sx := dc.Sphinx
	gets := sx.Searches
	set("core.lac_hit_share", ratio(sx.SpecHits, gets), gets)
	set("core.lac_miss_share", ratio(sx.SpecMisses, gets), gets)
	set("core.lac_refute_share", ratio(sx.SpecRefutes, gets), gets)
	set("core.lac_abort_share", ratio(sx.SpecAborts, gets), gets)
	locates := sx.FilterHits + sx.FilterFallbacks + sx.RootStarts
	set("core.sfc_hit_share", ratio(sx.FilterHits, locates), locates)
	set("core.sfc_fallback_share", ratio(sx.FilterFallbacks, locates), locates)
	set("core.root_start_share", ratio(sx.RootStarts, locates), locates)
	set("core.fp_per_kop", 1e3*ratio(sx.FalsePositives, ops), ops)
	set("core.collision_per_mop", 1e6*ratio(sx.CollisionRetries, ops), ops)
	set("core.restart_per_kop", 1e3*ratio(sx.Restarts, ops), ops)
	set("core.hot_hit_share", ratio(sx.HotHits, gets), gets)
	set("core.hot_refute_share", ratio(sx.HotRefutes, gets), gets)
	set("core.hot_promotes", float64(sx.HotPromotes), 0)
	set("core.hot_demotes", float64(sx.HotDemotes), 0)
	set("core.hot_refreshes", float64(sx.HotRefreshes), 0)
	set("core.epoch_fallbacks", float64(sx.EpochFallbacks), 0)
	var stageSum uint64
	for _, s := range rtStages {
		stageSum += dc.StageRT[s]
		set("fabric.rt_per_op."+s.String(), ratio(dc.StageRT[s], ops), ops)
	}
	for _, s := range byteStages {
		set("fabric.bytes_per_op."+s.String(), ratio(dc.StageBytes[s], ops), ops)
	}
	var busy, wait, rtMax, rtSum, members float64
	for _, row := range rows {
		busy, wait = math.Max(busy, row.BusyRatio), math.Max(wait, row.WaitRatio)
		if row.Member {
			rtMax, rtSum, members = math.Max(rtMax, float64(row.WindowRTs)), rtSum+float64(row.WindowRTs), members+1
		}
	}
	set("fabric.nic_busy_share_max", busy, 0)
	set("fabric.nic_wait_share_max", wait, 0)
	set("fabric.mn_imbalance", rtMax/(rtSum/members), 0)
	set("mem.inner_bytes_per_key", float64(mu.InnerNodeBytes)/live, 0)
	set("mem.leaf_bytes_per_key", float64(mu.LeafBytes)/live, 0)
	set("mem.hash_bytes_per_key", float64(mu.HashTableBytes)/live, 0)
	set("mem.meta_bytes_per_key", float64(mu.MetadataBytes)/live, 0)
	set("obs.tail_captured_share", ratio(dc.Captured, dc.Offered), dc.Offered)
	set("session.op_ns_p50", T.wallAll.quantile(0.5), T.wallAll.n)
	for k, h := range T.wall {
		if h.n > 0 {
			wr.Metrics["session."+kindNames[k]+"_ns_p50"] = value{Value: h.quantile(0.5), Unit: "ns", N: h.n}
		}
	}
	if h := T.wall[opGet]; h.n > 0 {
		wr.Metrics["session.get_ns_p99"] = value{Value: h.quantile(0.99), Unit: "ns", N: h.n}
	}
	set("session.rt_p50", T.rtQuantile(0.5), T.ops)
	set("session.rt_p99", T.rtQuantile(0.99), T.ops)
	set("session.rt_p999", T.rtQuantile(0.999), T.ops)
	set("session.reissued_per_mop", 1e6*ratio(T.reissued+U.reissued, ops), ops)

	// Source 2: the ladder.
	cops := C.ops + CU.ops // what the core rung's counters cover
	set("core.op_ns_p50", C.wallAll.quantile(0.5), C.wallAll.n)
	set("core.op_ns_p99", C.wallAll.quantile(0.99), C.wallAll.n)
	set("core.allocs_per_op", C.perOp(C.mallocs), C.ops)
	self := nsPerOp(T) - nsPerOp(C)
	set("session.self_ns_per_op", self, T.ops)
	set("session.self_allocs_per_op", T.perOp(T.mallocs)-C.perOp(C.mallocs), T.ops)
	var load float64
	for _, f := range cst.filters {
		load += f.Load() / float64(len(cst.filters))
	}
	set("cuckoo.load_factor", load, 0)
	set("cuckoo.evictions_per_kop", 1e3*ratio(dk.Filter.Evictions, cops), cops)
	set("cuckoo.kick_drops_per_mop", 1e6*ratio(dk.Filter.KickDrops, cops), cops)
	set("racehash.retry_reads_per_kop", 1e3*ratio(dk.Hash.RetryReads, cops), cops)
	set("racehash.splits", float64(dk.Hash.Splits), 0)
	set("racehash.refreshes_per_kop", 1e3*ratio(dk.Hash.Refreshes, cops), cops)
	var usage racehash.Usage
	for node, t := range cst.shared.Tables {
		usage = usage.Add(racehash.ReadUsage(cst.f.Region(node), t))
	}
	set("racehash.load_factor", usage.LoadFactor(), usage.Entries)
	set("rart.lock_steals", float64(dk.Engine.LockSteals), 0)
	set("rart.leaf_breaks", float64(dk.Engine.LeafLockBreaks), 0)
	set("rart.publish_retries", float64(dk.Engine.PublishRetries), 0)

	// Source 3: unit drivers, on this workload's keys and round-trip mix.
	var rts []uint64
	for rt, n := range T.rts {
		for i := uint64(0); i < (n*1024+T.ops-1)/T.ops; i++ {
			rts = append(rts, uint64(rt))
		}
	}
	units := runUnits(unitInputs{
		keys: e.ks.keys, valueSize: sp.valueSize, cfgBytes: cfgBytes,
		rts: rts, calls: z.scaled(50_000*z.seconds, 2000), drivers: e.drivers,
	})
	for name, v := range units {
		set(name, v, 0)
	}
	var est float64
	for s := 0; s < fabric.NumStages; s++ {
		est += ratio(dk.Batches[s], cops) * units[unitCost(fabric.Stage(s))]
	}
	set("fabric.est_ns_per_op", est, cops)
	set("core.self_ns_per_op_est", C.wallAll.quantile(0.5)-est, cops)

	// host.*
	set("host.wall_tput_kops", U.tputKops(), uint64(len(U.sliceKops)))
	set("host.sim_slowdown", U.elapsed.Seconds()/(float64(U.virtMaxPs)/1e12), 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // process totals: main runs every workload in a process of its own
	set("host.gc_cycles", float64(ms.NumGC), 0)
	set("host.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, uint64(ms.NumGC))
	set("host.peak_rss_mb", peakRSSMB(), 0)
	set("host.wall_lat_p99_us", T.wallAll.quantile(0.99)/1e3, T.wallAll.n)
	set("host.trace_overhead_pct", 100*(U.tputKops()-T.tputKops())/U.tputKops(), 0)

	// Verdicts. The round trips a session counted must all carry a reported
	// stage; and the wrapper cost taken from driver time must agree with the
	// one the per-call spans saw (mean session call − mean core call), to
	// within a tenth of a call: what the drivers do outside the spans is then
	// the same on both rungs, and the subtraction is sound.
	call := T.wallAll.mean()
	wr.Verdicts = map[string]bool{
		"rt_reconciled":     stageSum == T.net.rts+U.net.rts,
		"ladder_reconciled": math.Abs(call-C.wallAll.mean()-self) <= 0.10*call,
	}

	spans := appendSpans(nil, sp.name, rec, nil)
	spans = appendSpans(spans, sp.name, crec, logs)
	if wr.TraceFile, err = writeTrace(outDir, sp.name, spans); err != nil {
		return nil, err
	}
	return wr, nil
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
