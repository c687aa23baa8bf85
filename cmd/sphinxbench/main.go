// Command sphinxbench regenerates the paper's evaluation figures on the
// simulated disaggregated-memory cluster.
//
// Usage:
//
//	sphinxbench [flags] fig4|fig5|fig6|ablation|scaling|treedepth|valsweep|pipeline|fastpath|failover|elastic|skew|all
//
// fig4–fig6 regenerate the paper's figures and ablation the filter cache's
// share of them (Sphinx against Sphinx-noSFC); scaling (CN multicore),
// treedepth, valsweep, pipeline (issue depth) and fastpath (leaf-address
// cache, warmup/steady) extend them; failover, elastic and
// skew are the ledgered chaos and hot-spot experiments the CI smoke jobs
// gate on; all runs fig4, fig5, fig6, ablation and pipeline. Each
// experiment prints an aligned table; see EXPERIMENTS.md for the mapping
// to the paper's figures and the expected shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"time"

	"sphinx/internal/bench"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

func main() {
	keys := flag.Int("keys", 100_000, "loaded keys per dataset (paper: 60M)")
	workers := flag.Int("workers", 24, "worker count for fig4/fig6/ablation")
	ops := flag.Int("ops", 2000, "operations per worker per workload run")
	seed := flag.Int64("seed", 1, "dataset and workload seed")
	mns := flag.Int("mns", 3, "memory nodes")
	cns := flag.Int("cns", 3, "compute nodes")
	only := flag.String("dataset", "", "restrict to one dataset: u64 or email")
	theta := flag.Float64("theta", 0.99, "zipfian request skew (paper: 0.99)")
	stats := flag.Bool("stats", false, "print Sphinx routing diagnostics per run")
	faults := flag.Int("faults", 0, "inject fabric faults at this per-64k rate per batch (transient + timeout); 0 disables")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	depth := flag.Int("depth", 1, "per-worker issue depth: in-flight ops per worker with coalesced doorbell batches (Sphinx-family only; pipeline sweeps its own)")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json reports into this directory")
	metrics := flag.Bool("metrics", false, "record per-op and per-stage histograms and emit a metrics section per result (fails the run if round-trip totals do not reconcile)")
	serveAddr := flag.String("serve", "", "serve live observability HTTP on this address while experiments run (host:0 for an ephemeral port): /metrics, /snapshot, /traces, /debug/pprof")
	serveLinger := flag.Duration("serve-linger", 0, "with -serve, keep serving this long after the experiments finish (lets scrapers read final totals)")
	scaleWorkers := flag.String("scale-workers", "", "comma-separated worker counts for the scaling experiment (default 1,2,4,8,16)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] fig4|fig5|fig6|ablation|scaling|treedepth|valsweep|pipeline|fastpath|failover|elastic|skew|all\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// -theta 0 means uniform when the user says so explicitly; the config
	// zero value means "default skew", so it must be mapped to the sentinel
	// here, where explicitly-set flags are distinguishable.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "theta" && *theta == 0 {
			*theta = bench.ThetaUniform
		}
	})

	base := bench.Config{
		Keys:         *keys,
		Workers:      *workers,
		OpsPerWorker: *ops,
		Seed:         *seed,
		MNs:          *mns,
		CNs:          *cns,
		Theta:        *theta,
		Depth:        *depth,
		Metrics:      *metrics,
	}
	var live *bench.Live
	if *serveAddr != "" {
		live = bench.NewLive()
		base.Live = live
	}
	if *faults > 0 {
		base.Faults = &fabric.FaultPlan{
			Seed:            uint64(*seed),
			TransientPer64k: uint32(*faults),
			TimeoutPer64k:   uint32(*faults) / 2,
		}
	}
	var cfgs []bench.Config
	switch *only {
	case "":
		cfgs = bench.DatasetConfigs(base)
	case "u64":
		base.Dataset = dataset.U64
		cfgs = []bench.Config{base}
	case "email":
		base.Dataset = dataset.Email
		cfgs = []bench.Config{base}
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *only)
		os.Exit(2)
	}

	if live != nil {
		// The registry is assembled here, before any experiment goroutine
		// exists; scrapes then race only against atomic counter sources.
		h := obs.NewHandler(obs.ServeOptions{Registry: live.Registry(), Tail: live.Tail, Plane: live.Plane})
		_, bound, err := obs.Serve(*serveAddr, h)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphinxbench:", err)
			os.Exit(1)
		}
		// Sample the plane on the wall clock for as long as we serve —
		// /mn, /slo and /alerts then move while experiments run and keep
		// settling through -serve-linger after the load stops.
		live.Plane.EnsureWallTicker(250 * time.Millisecond)
		fmt.Fprintf(os.Stderr, "serving observability on http://%s/\n", bound)
	}

	var collected []bench.Result
	reports := map[string]*bench.JSONReport{}
	report := func(name string) *bench.JSONReport {
		if reports[name] == nil {
			rep := bench.NewJSONReport(name, base)
			reports[name] = &rep
		}
		return reports[name]
	}
	run := func(name string) error {
		for _, cfg := range cfgs {
			var results []bench.Result
			var err error
			switch name {
			case "fig4":
				results, err = bench.Fig4(cfg, nil, os.Stdout)
				printDiags(results, *stats)
			case "fig5":
				results, err = bench.Fig5(cfg, nil, nil, os.Stdout)
				printDiags(results, *stats)
			case "fig6":
				var usages []bench.MemUsage
				usages, err = bench.Fig6(cfg, os.Stdout)
				if err == nil {
					rep := report(name)
					rep.MemUsages = append(rep.MemUsages, usages...)
				}
			case "ablation":
				results, err = bench.Ablation(cfg, os.Stdout)
			case "scaling":
				var steps []int
				steps, err = parseWorkerSteps(*scaleWorkers)
				if err == nil {
					results, err = bench.WorkerScaling(cfg, steps, os.Stdout)
				}
			case "treedepth":
				results, err = bench.TreeDepthScaling(cfg, nil, os.Stdout)
			case "valsweep":
				results, err = bench.ValueSweep(cfg, nil, os.Stdout)
			case "pipeline":
				results, err = bench.PipelineSweep(cfg, nil, os.Stdout)
				printDiags(results, *stats)
			case "fastpath":
				results, err = bench.Fastpath(cfg, os.Stdout)
				printDiags(results, *stats)
			case "failover":
				var frep *bench.FailoverReport
				frep, err = bench.Failover(cfg, os.Stdout)
				if err == nil {
					report(name).Failover = frep
				}
			case "elastic":
				var erep *bench.ElasticReport
				results, erep, err = bench.Elastic(cfg, os.Stdout)
				if err == nil {
					report(name).Elastic = erep
				}
			case "skew":
				var srep *bench.SkewReport
				results, srep, err = bench.Skew(cfg, nil, os.Stdout)
				if err == nil {
					report(name).Skew = srep
				}
			default:
				return fmt.Errorf("unknown experiment %q", name)
			}
			if err != nil {
				return err
			}
			if len(results) > 0 {
				collected = append(collected, results...)
				rep := report(name)
				rep.Results = append(rep.Results, results...)
			}
			fmt.Println()
		}
		return nil
	}

	var err error
	if flag.Arg(0) == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6", "ablation", "pipeline"} {
			if err = run(name); err != nil {
				break
			}
		}
	} else {
		err = run(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sphinxbench:", err)
		os.Exit(1)
	}
	if *metrics {
		// The metrics section is only trustworthy if its histograms account
		// for every round trip the fabric counted. Baselines may hold
		// round trips outside per-op attribution, so only the Sphinx-family
		// verdicts are hard failures.
		bad := 0
		for _, r := range collected {
			if r.Metrics == nil {
				continue
			}
			m, c := r.Metrics, r.Metrics.Snapshot.Counters
			if !m.RTReconciled && strings.HasPrefix(r.System, "Sphinx") {
				op, stage := m.RoundTripSums()
				fmt.Fprintf(os.Stderr, "sphinxbench: %s %s depth=%d: round trips do not reconcile (op %d, stage %d, fabric %d)\n",
					r.System, r.Workload, r.Depth, op, stage, r.RoundTrips)
				bad++
			}
			if v := m.LACReconciled; v != nil && !*v {
				fmt.Fprintf(os.Stderr, "sphinxbench: %s %s depth=%d: speculative round trips do not reconcile (hits %d, refutes %d, aborts %d, fabric %d)\n",
					r.System, r.Workload, r.Depth,
					c["core_spec_hits"], c["core_spec_refutes"], c["core_spec_aborts"], r.RoundTrips)
				bad++
			}
			if v := m.HotReconciled; v != nil && !*v {
				fmt.Fprintf(os.Stderr, "sphinxbench: %s %s depth=%d: hot-replica round trips do not reconcile (hits %d, refutes %d, aborts %d)\n",
					r.System, r.Workload, r.Depth, c["core_hot_hits"], c["core_hot_refutes"], c["core_hot_aborts"])
				bad++
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "sphinxbench: %d result(s) failed metrics reconciliation\n", bad)
			os.Exit(1)
		}
	}
	// The skew experiment carries its own acceptance gate: hot-replicated
	// throughput at theta=0.99, flattened per-MN imbalance, and the
	// trust-but-verify reconciliation of every replica read. A failed
	// gate fails the run regardless of -metrics (the experiment forces
	// metrics on internally).
	if rep := reports["skew"]; rep != nil && rep.Skew != nil && !rep.Skew.Pass {
		fmt.Fprintf(os.Stderr, "sphinxbench: skew gate failed (speedup@0.99 %.2f, gate %.1fx)\n",
			rep.Skew.SpeedupAt099, rep.Skew.Gate)
		os.Exit(1)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sphinxbench:", err)
			os.Exit(1)
		}
		for name, rep := range reports {
			path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sphinxbench:", err)
				os.Exit(1)
			}
			err = rep.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "sphinxbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if *csvPath != "" && len(collected) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphinxbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := bench.WriteCSV(collected, f); err != nil {
			fmt.Fprintln(os.Stderr, "sphinxbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(collected), *csvPath)
	}
	if live != nil && *serveLinger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %v for final scrapes\n", *serveLinger)
		time.Sleep(*serveLinger)
	}
}

// parseWorkerSteps parses the -scale-workers flag ("1,4,16"); empty
// selects the experiment's default sweep.
func parseWorkerSteps(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	steps := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scale-workers element %q", p)
		}
		steps = append(steps, n)
	}
	return steps, nil
}

// printDiags dumps Sphinx routing diagnostics after an experiment when
// requested (filter hit rates, false positives, restarts). Fault and
// recovery counters print whenever a run saw faults or lock recovery,
// independent of the -stats flag.
func printDiags(results []bench.Result, enabled bool) {
	if enabled {
		fmt.Println("# sphinx diagnostics")
		for _, r := range results {
			if d := r.Diag(); d != "" {
				fmt.Printf("%-14s %-8s %-6s %s\n", r.System, r.Workload, r.Dataset, d)
			}
		}
	}
	header := false
	for _, r := range results {
		if fl := r.FaultLine(); fl != "" {
			if !header {
				fmt.Println("# fault recovery")
				header = true
			}
			fmt.Printf("%-14s %-8s %-6s %s\n", r.System, r.Workload, r.Dataset, fl)
		}
	}
}
