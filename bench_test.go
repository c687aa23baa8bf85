// Benchmarks regenerating every figure of the paper's evaluation (§V) at
// reduced scale. Because the cluster's network is simulated in virtual
// time, wall-clock ns/op is meaningless here; each benchmark reports the
// quantities the paper plots as custom metrics:
//
//	Mops_virt   — workload throughput in virtual network time (Fig. 4/5)
//	avgLat_us   — mean operation latency in virtual time (Fig. 5)
//	RT_per_op   — network round trips per operation (§III analysis)
//	bytes_per_op
//	memRatio    — MN memory relative to the plain ART (Fig. 6)
//	inhtOvh_pct — inner-node hash table overhead (Fig. 6)
//
// Run with: go test -bench=. -benchmem
package sphinx_test

import (
	"fmt"
	"testing"

	"sphinx/internal/bench"
	"sphinx/internal/dataset"
	"sphinx/internal/ycsb"
)

// benchScale keeps the full -bench=. sweep to a few minutes. The cmd
// harness (cmd/sphinxbench) runs the same experiments at larger scale.
const (
	benchKeys    = 15_000
	benchWorkers = 12
	benchOps     = 200
)

func benchConfig(kind dataset.Kind) bench.Config {
	return bench.Config{
		Dataset:      kind,
		Keys:         benchKeys,
		Workers:      benchWorkers,
		OpsPerWorker: benchOps,
		Seed:         1,
	}
}

func reportRun(b *testing.B, r bench.Result) {
	b.ReportMetric(r.ThroughputMops, "Mops_virt")
	b.ReportMetric(r.AvgLatUs, "avgLat_us")
	b.ReportMetric(r.RoundTripsPerOp, "RT_per_op")
	b.ReportMetric(r.BytesPerOp, "bytes_per_op")
}

// BenchmarkFig4 regenerates Fig. 4: YCSB throughput for LOAD and A–E, per
// system and dataset.
func BenchmarkFig4(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.U64, dataset.Email} {
		for _, sys := range bench.PaperSystems {
			b.Run(fmt.Sprintf("%s/%v/LOAD", kind, sys), func(b *testing.B) {
				var last bench.Result
				for i := 0; i < b.N; i++ {
					cl, err := bench.NewCluster(sys, benchConfig(kind))
					if err != nil {
						b.Fatal(err)
					}
					last, err = cl.Load(0)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportRun(b, last)
			})
			cl, err := bench.NewCluster(sys, benchConfig(kind))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Load(0); err != nil {
				b.Fatal(err)
			}
			for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE} {
				w := w
				b.Run(fmt.Sprintf("%s/%v/%s", kind, sys, w.Name), func(b *testing.B) {
					var last bench.Result
					for i := 0; i < b.N; i++ {
						var err error
						last, err = cl.Run(w, 0, 0)
						if err != nil {
							b.Fatal(err)
						}
					}
					reportRun(b, last)
				})
			}
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: the YCSB-A throughput–latency curve
// over the worker sweep, per system and dataset.
func BenchmarkFig5(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.U64, dataset.Email} {
		for _, sys := range bench.PaperSystems {
			cl, err := bench.NewCluster(sys, benchConfig(kind))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Load(0); err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{6, 48, 192} {
				workers := workers
				b.Run(fmt.Sprintf("%s/%v/workers=%d", kind, sys, workers), func(b *testing.B) {
					var last bench.Result
					for i := 0; i < b.N; i++ {
						var err error
						last, err = cl.Run(ycsb.WorkloadA, workers, 0)
						if err != nil {
							b.Fatal(err)
						}
					}
					reportRun(b, last)
				})
			}
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: MN-side memory after loading the
// dataset, per system, reporting each system's footprint relative to the
// plain ART and the inner-node hash table's overhead.
func BenchmarkFig6(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.U64, dataset.Email} {
		// The ART baseline for the ratio.
		artCl, err := bench.NewCluster(bench.ART, benchConfig(kind))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := artCl.Load(0); err != nil {
			b.Fatal(err)
		}
		artMem, err := artCl.Usage()
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []bench.System{bench.ART, bench.Sphinx, bench.SMART} {
			sys := sys
			b.Run(fmt.Sprintf("%s/%v", kind, sys), func(b *testing.B) {
				var mu bench.MemUsage
				for i := 0; i < b.N; i++ {
					cl, err := bench.NewCluster(sys, benchConfig(kind))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cl.Load(0); err != nil {
						b.Fatal(err)
					}
					mu, err = cl.Usage()
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(mu.IndexBytes())/float64(artMem.IndexBytes()), "memRatio")
				if sys == bench.Sphinx {
					b.ReportMetric(100*float64(mu.HashBytes())/float64(mu.IndexBytes()), "inhtOvh_pct")
				}
			})
		}
	}
}

// BenchmarkAblation quantifies the filter cache (see DESIGN.md): Sphinx
// against Sphinx-noSFC on YCSB-C.
func BenchmarkAblation(b *testing.B) {
	for _, sys := range []bench.System{bench.Sphinx, bench.SphinxNoSFC} {
		cl, err := bench.NewCluster(sys, benchConfig(dataset.Email))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Load(0); err != nil {
			b.Fatal(err)
		}
		sysName := sys.String()
		b.Run(sysName+"/C", func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				last, err = cl.Run(ycsb.WorkloadC, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportRun(b, last)
		})
	}
}
