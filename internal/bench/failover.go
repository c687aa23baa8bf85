package bench

import (
	"fmt"
	"io"
	"sync/atomic"

	"sphinx/internal/core"
)

// FailoverReport is the MN-loss chaos experiment's result: did killing a
// memory node mid-run lose any acknowledged write, how much did the tail
// degrade, and did online repair restore full replication while the
// cluster kept serving. The CI chaos gate reads LostAckedWrites and
// UnderReplicatedFinal.
type FailoverReport struct {
	System      string `json:"system"`
	MNs         int    `json:"mns"`
	Replication int    `json:"replication"`
	Workers     int    `json:"workers"`
	KilledNode  int    `json:"killed_node"`

	// Durability: every write acknowledged to a worker (before or after
	// the kill) is re-read in the verification phase. A lost write is a
	// verified read that found nothing; a wrong value is a verified read
	// that found a stale value. Both must be zero.
	AckedWrites     uint64 `json:"acked_writes"`
	VerifiedReads   uint64 `json:"verified_reads"`
	LostAckedWrites uint64 `json:"lost_acked_writes"`
	WrongValueReads uint64 `json:"wrong_value_reads"`

	// Latency split at the kill: the post-kill window includes the
	// breaker's discovery cost and every failover read, so its tail shows
	// the degradation the paper's availability story must bound.
	PreKillOps    uint64  `json:"pre_kill_ops"`
	PostKillOps   uint64  `json:"post_kill_ops"`
	PreKillP50Us  float64 `json:"pre_kill_p50_us"`
	PreKillP99Us  float64 `json:"pre_kill_p99_us"`
	PostKillP50Us float64 `json:"post_kill_p50_us"`
	PostKillP99Us float64 `json:"post_kill_p99_us"`
	// MaxPostKillUs is the single worst post-kill operation — it bounds
	// the one-shot failover decision latency (discovery + replica read).
	MaxPostKillUs float64 `json:"max_post_kill_us"`

	// Fault-tolerance counters aggregated across workers.
	Failovers       uint64 `json:"failovers"`
	DegradedPuts    uint64 `json:"degraded_puts"`
	PartialReplicas uint64 `json:"partial_replicas"`
	HealthRejects   uint64 `json:"health_rejects"`

	// Online repair: sweeps until one reported zero deficits, replicas
	// re-published, the final under-replicated gauge (must be 0), and the
	// reads served concurrently with repair (all must have succeeded).
	RepairSweeps         uint64 `json:"repair_sweeps"`
	RepairCopied         uint64 `json:"repair_copied"`
	UnderReplicatedFinal uint64 `json:"under_replicated_final"`
	ReadsDuringRepair    uint64 `json:"reads_during_repair"`
}

// Failover is the MN-loss chaos experiment: load a replicated Sphinx
// cluster, drive a 50/50 read/update workload over per-worker key
// partitions (unique value per write, so verification detects silent
// loss), kill one memory node halfway through, and require that every
// acknowledged write stays readable, that reads fail over in one
// decision, and that repair sweeps restore full replication while a
// reader keeps being served.
func Failover(cfg Config, out io.Writer) (*FailoverReport, error) {
	if cfg.Replication < 2 {
		cfg.Replication = core.DefaultReplication
	}
	cfg = cfg.withDefaults()
	if cfg.MNs < 3 {
		return nil, fmt.Errorf("failover: need >= 3 memory nodes, have %d", cfg.MNs)
	}
	fmt.Fprintf(out, "# Failover — kill 1 of %d MNs mid-run, R=%d, dataset=%v keys=%d workers=%d\n",
		cfg.MNs, cfg.Replication, cfg.Dataset, cfg.Keys, cfg.Workers)
	cl, _, err := loaded(Sphinx, cfg)
	if err != nil {
		return nil, fmt.Errorf("failover: %w", err)
	}

	rep := &FailoverReport{
		System:      Sphinx.String(),
		MNs:         cfg.MNs,
		Replication: cfg.Replication,
		Workers:     cfg.Workers,
	}

	// The victim is the ring owner of the first key, so the kill is
	// guaranteed to sever live tree paths and hash entries.
	nodes := cl.Ring.Nodes()
	victim := cl.Ring.OwnerKey(cl.keys[0])
	for i, n := range nodes {
		if n == victim {
			rep.KilledNode = i
		}
	}

	// One ledgered pass; worker 0 kills the victim halfway through its
	// own loop. preOps counts, per worker, the ops that finished before
	// the kill: the split point of its latency sample.
	ops := cfg.OpsPerWorker
	killAt := ops / 2
	var killed atomic.Bool
	preOps := make([]int, cfg.Workers)
	led := newLedger(cl.keys, cfg.Workers, cfg.Seed)
	ws, err := cl.drive(cfg.Workers, sequential(cl.NewIndex), func(w *worker) error {
		rng := led.stream(w.id)
		for i := 0; i < ops; i++ {
			if w.id == 0 && i == killAt {
				cl.F.KillNode(victim)
				killed.Store(true)
			}
			if _, _, err := led.op(w, &rng, i); err != nil {
				return err
			}
			if !killed.Load() {
				preOps[w.id] = i + 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Latency split at the kill.
	var preLists, postLists [][]int64
	for _, w := range ws {
		preLists = append(preLists, w.lat[:preOps[w.id]])
		postLists = append(postLists, w.lat[preOps[w.id]:])
	}
	pre, post := sortLatencies(preLists...), sortLatencies(postLists...)
	rep.PreKillOps, rep.PostKillOps = uint64(len(pre)), uint64(len(post))
	rep.PreKillP50Us, rep.PreKillP99Us = float64(pre.pct(50))/1e6, float64(pre.pct(99))/1e6
	rep.PostKillP50Us, rep.PostKillP99Us = float64(post.pct(50))/1e6, float64(post.pct(99))/1e6
	rep.MaxPostKillUs = float64(post.max()) / 1e6
	t := tallyOf(ws)
	rep.Failovers = t.core.Failovers
	rep.DegradedPuts = t.core.DegradedPuts
	rep.PartialReplicas = t.core.PartialReplicas
	rep.HealthRejects = t.net.HealthRejects

	// Verification: a fresh client re-reads every acknowledged write.
	rep.AckedWrites = uint64(led.size())
	vidx, _ := cl.NewIndex(0)
	led.verify(vidx, &rep.VerifiedReads, &rep.LostAckedWrites, &rep.WrongValueReads)

	// Online repair: sweep until a pass reports zero deficits, reading
	// live keys between sweeps to prove the cluster serves throughout.
	ridx, _ := cl.NewIndex(1 % cfg.CNs)
	rc := ridx.(*core.Client)
	reader, _ := cl.NewIndex(2 % cfg.CNs)
	for sweep := 0; sweep < 10; sweep++ {
		srep, err := rc.RepairSweep()
		if err != nil {
			return nil, fmt.Errorf("repair sweep %d: %w", sweep, err)
		}
		for i := 0; i < 32 && i < len(cl.keys); i++ {
			if _, _, err := reader.Search(cl.keys[i*(len(cl.keys)/32+1)%len(cl.keys)]); err != nil {
				return nil, fmt.Errorf("read during repair sweep %d: %w", sweep, err)
			}
			rep.ReadsDuringRepair++
		}
		if srep.Deficits == 0 {
			break
		}
	}
	if ft := cl.sphinxShared.FT; ft != nil {
		rep.UnderReplicatedFinal = ft.UnderReplicated()
		rep.RepairSweeps, rep.RepairCopied = ft.RepairTotals()
	}

	fmt.Fprintf(out, "killed MN %d at op %d/%d per worker\n", rep.KilledNode, killAt, ops)
	fmt.Fprintf(out, "acked writes %d, verified %d: lost %d, wrong %d\n",
		rep.AckedWrites, rep.VerifiedReads, rep.LostAckedWrites, rep.WrongValueReads)
	fmt.Fprintf(out, "latency p50/p99 us: pre-kill %.2f/%.2f  post-kill %.2f/%.2f  (max post %.2f)\n",
		rep.PreKillP50Us, rep.PreKillP99Us, rep.PostKillP50Us, rep.PostKillP99Us, rep.MaxPostKillUs)
	fmt.Fprintf(out, "failovers %d  degraded puts %d  partial replicas %d  breaker rejects %d\n",
		rep.Failovers, rep.DegradedPuts, rep.PartialReplicas, rep.HealthRejects)
	fmt.Fprintf(out, "repair: %d sweeps, %d replicas copied, under-replicated %d, %d reads served during repair\n",
		rep.RepairSweeps, rep.RepairCopied, rep.UnderReplicatedFinal, rep.ReadsDuringRepair)
	return rep, nil
}
