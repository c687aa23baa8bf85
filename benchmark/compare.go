package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges metric m going from a to b. A change within the bound
// either way is "same"; failed_op_share and reissued_op_share have no bound,
// so any rise is worse.
func verdict(m metric, a, b value, present bool) (deltaPct float64, v string) {
	if !present || a.Unresolved || b.Unresolved {
		return 0, "unresolved"
	}
	if a.Value == b.Value {
		return 0, "same"
	}
	if a.Value == 0 {
		if (b.Value > 0) == (m.better == "lower") {
			return 0, "worse"
		}
		return 0, "better"
	}
	rel := (b.Value - a.Value) / a.Value
	worse := rel
	if m.better == "higher" {
		worse = -rel
	}
	switch {
	case worse > m.bound:
		v = "worse"
	case -worse > m.bound:
		v = "better"
	default:
		v = "same"
	}
	return rel * 100, v
}

// compare prints, per workload and end-to-end metric (wall_tput_kops,
// failed_op_share and reissued_op_share included), both values, the change, the bound and a
// verdict; it reports whether anything got worse.
func compare(w io.Writer, a, b *report) (anyWorse bool) {
	if a.Seconds != b.Seconds || a.Drivers != b.Drivers {
		fmt.Fprintf(w, "# warning: the runs differ in size (seconds %d vs %d, drivers %d vs %d)\n",
			a.Seconds, b.Seconds, a.Drivers, b.Drivers)
	}
	defs := append(append([]metric{}, endToEnd...), findMetric(extras, wallTput), findMetric(extras, failedShare), findMetric(extras, reissuedShare))
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from B\n", wa.Name)
			continue
		}
		if wa.StreamHash != wb.StreamHash {
			fmt.Fprintf(w, "# warning: %s ran different operations (stream %s vs %s)\n", wa.Name, wa.StreamHash, wb.StreamHash)
		}
		for _, m := range defs {
			va, oka := wa.Metrics[m.name]
			vb, okb := wb.Metrics[m.name]
			delta, v := verdict(m, va, vb, oka && okb)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", wa.Name, m.name, va.Value, vb.Value, delta, m.bound*100, v)
		}
	}
	return anyWorse
}
