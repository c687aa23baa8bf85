package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// value is one reported number. N is the sample count behind a percentile;
// Unresolved marks a host-clock number taken with fewer CPUs than drivers.
type value struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          uint64  `json:"n,omitempty"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

type workloadReport struct {
	Name       string           `json:"name"`
	Drivers    int              `json:"drivers"`
	StreamHash string           `json:"stream_hash"`
	Attempted  uint64           `json:"attempted"`
	Failed     uint64           `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	Verdicts   map[string]bool  `json:"verdicts,omitempty"`
	TraceFile  string           `json:"trace_file,omitempty"`
}

// report is what -out writes and compare reads: one ledger entry.
type report struct {
	Commit     string           `json:"commit"`
	Go         string           `json:"go"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Drivers    int              `json:"drivers"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(seed int64, z sizes, traced bool) *report {
	r := &report{
		Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Drivers: z.drivers, Seed: seed, Seconds: z.seconds, Traced: traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				r.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
		r.Commit += dirty
	}
	return r
}

func (r *report) printHeader(w io.Writer) {
	fmt.Fprintf(w, "# sphinx benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, drivers %d, seed %d, seconds %d, traced %v\n",
		r.Commit, r.Go, r.NProc, r.GOMAXPROCS, r.Drivers, r.Seed, r.Seconds, r.Traced)
}

// print writes one line per metric, in the order of defs, then the verdicts.
func (wr *workloadReport) print(w io.Writer, defs []metric) {
	for _, m := range defs {
		v, ok := wr.Metrics[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-12s %-32s %16.6g %-7s", wr.Name, m.name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Unresolved {
			line += " unresolved (GOMAXPROCS < drivers)"
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(wr.Verdicts))
	for name := range wr.Verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-12s %-32s %16v\n", wr.Name, name, wr.Verdicts[name])
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the last line of a single-workload run: the shape the
// harness that drives BENCHMARK.json parses.
func (wr *workloadReport) resultLine(defs []metric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]mv{}}
	for _, m := range defs {
		v := wr.Metrics[m.name]
		out.Metrics[m.name] = mv{v.Value, m.unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}
