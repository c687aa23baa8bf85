package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkManifest compares BENCHMARK.json at path with the code: the same
// workloads with the same reasons, the same metrics in the same order with
// the same units, directions and bounds, all within the manifest's limits.
// It returns what differs, one line each.
func checkManifest(path string) (problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	b, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error() + " (run from the root of the repository: bash benchmark/run.sh)"}
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return []string{err.Error()}
	}
	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, w.Name)
		if !nameRE.MatchString(w.Name) {
			bad("workload name %q", w.Name)
		}
		if sp := specByName(w.Name); sp != nil && sp.why != w.Why {
			bad("workload %s: workloads.go gives another reason", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			bad("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(got, want) {
		bad("workloads %v, code has %v", got, want)
	}
	same := func(kind string, file []jm, code []metric, bounded bool) {
		if len(file) != len(code) {
			bad("%s: %d metrics, code has %d", kind, len(file), len(code))
		}
		seen := map[string]bool{}
		for i, m := range code {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
				bad("%s %q: bad name, unit %q or direction %q", kind, m.name, m.unit, m.better)
			}
			if seen[m.name] {
				bad("%s %q declared twice", kind, m.name)
			}
			seen[m.name] = true
			if bounded && (m.bound <= 0 || m.bound > 0.25) {
				bad("%s %s: bound %v outside (0, 0.25]", kind, m.name, m.bound)
			}
			if i >= len(file) {
				continue
			}
			if f := file[i]; f.Name != m.name || f.Unit != m.unit || f.Better != m.better || (bounded && f.Bound != m.bound) {
				bad("%s #%d: %+v, code has %s %s %s %v", kind, i, f, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" || file.RunSeconds < 1 || file.RunSeconds > 60 {
		bad("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
	return problems
}
