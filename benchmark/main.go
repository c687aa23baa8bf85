// Command benchmark is the repository's benchmark: five workloads driven
// through the public sphinx API on two clocks (the modelled network's and the
// host's), a per-layer ladder under them, and a compare tool. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

const (
	// outDir is where traced runs write their span files.
	outDir = "benchmark/out"
	// maxDrivers is the largest driver count the workloads are defined for:
	// the load shape is min(2, CPUs) closed-loop drivers.
	maxDrivers = 2
)

const usageText = `usage:
  benchmark [-seed N] [-workloads a,b] [-seconds S] [-drivers 1|2] [-trace] [-out file.json]
  benchmark -workload NAME -seed N -seconds S -trace 0|1     (one workload, result line last)
  benchmark compare A.json B.json
`

// mergeTraceValue rewrites "-trace 0|1" into "-trace=0|1": the flag is a
// boolean for people and takes a separate value from the harness.
func mergeTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, usageText)
		fs.PrintDefaults()
	}
	seed := fs.Int64("seed", 1, "workload seed: keys, operations and values derive from it alone")
	list := fs.String("workloads", "", "comma-separated workloads to run (default: all)")
	one := fs.String("workload", "", "run this one workload and print the machine-readable result as the last line")
	seconds := fs.Int("seconds", 8, "length of a measured phase on the reference box; fixes the op counts")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, span files and reconciliation verdicts instead of end-to-end metrics")
	out := fs.String("out", "", "also write the report as JSON to this file (input of compare)")
	drivers := fs.Int("drivers", 0, "load goroutines, 1 or 2 (default min(2, CPUs)); 1 makes the virtual metrics repeat exactly")
	if err := fs.Parse(mergeTraceValue(os.Args[1:])); err != nil || fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	z := sizes{seconds: *seconds, scale: 1, drivers: *drivers, setups: setupRuns}
	if z.drivers == 0 {
		z.drivers = min(maxDrivers, runtime.NumCPU())
	}
	if z.seconds < 1 || z.drivers < 1 || z.drivers > maxDrivers {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be positive and -drivers 1 to %d\n", maxDrivers)
		os.Exit(2)
	}
	// The self-tests that keep BENCHMARK.json and the code in step are not
	// part of the repository's tier-1 tests (this is a module of its own), so
	// every run checks it too.
	if problems := checkManifest("BENCHMARK.json"); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", p)
		}
		os.Exit(2)
	}
	var run []*spec
	switch {
	case *one != "":
		*list = *one
		fallthrough
	case *list != "":
		for _, name := range strings.Split(*list, ",") {
			sp := specByName(name)
			if sp == nil {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
				os.Exit(2)
			}
			run = append(run, sp)
		}
	default:
		run = specs
	}

	rep := newReport(*seed, z, *trace)
	resultLine := "" // the harness form ends with it
	if len(run) > 1 {
		// One process per workload, as the harness runs them: what a workload
		// reports (set-up time, allocations, GC cycles, peak RSS) then does
		// not depend on which workloads ran before it.
		for _, sp := range run {
			wr, err := runInChild(sp.name, *seed, z, *trace, *out)
			if err != nil {
				fail(sp.name, err)
			}
			if wr != nil {
				rep.Workloads = append(rep.Workloads, *wr)
			}
		}
	} else {
		rep.printHeader(os.Stdout)
		sp, defs, runOne := run[0], endToEnd, runEndToEnd
		if *trace {
			defs, runOne = perLayer, func(sp *spec, seed int64, z sizes) (*workloadReport, error) {
				return runTraced(sp, seed, z, outDir)
			}
		}
		wr, err := runOne(sp, *seed, z)
		if err != nil {
			// Only a broken benchmark or cluster bootstrap ends up here;
			// failed operations are counted, not fatal.
			fail(sp.name, err)
		}
		wr.print(os.Stdout, append(append([]metric{}, defs...), extras...))
		rep.Workloads = append(rep.Workloads, *wr)
		if *one != "" {
			resultLine = wr.resultLine(defs)
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fail(*out, err)
		}
	}
	if resultLine != "" {
		fmt.Println(resultLine)
	}
}

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	os.Exit(1)
}

// runInChild runs one workload in a process of its own, its output going to
// this one's. With out set, the child's report is read back from a file
// beside out and returned.
func runInChild(name string, seed int64, z sizes, trace bool, out string) (*workloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workloads", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(z.seconds),
		"-drivers", strconv.Itoa(z.drivers), "-trace=" + strconv.FormatBool(trace),
	}
	part := out + "." + name
	if out != "" {
		args = append(args, "-out", part)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	if out == "" {
		return nil, nil
	}
	r, err := readReport(part)
	if err != nil {
		return nil, err
	}
	if len(r.Workloads) != 1 {
		return nil, fmt.Errorf("%s holds %d workloads, want 1", part, len(r.Workloads))
	}
	return &r.Workloads[0], os.Remove(part)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprint(os.Stderr, usageText)
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}
