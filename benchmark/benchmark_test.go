package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"sphinx"
)

// testSizes is every workload at 1/200 of its size, set up once.
var testSizes = sizes{seconds: 8, scale: 0.005, drivers: 2, setups: 1}

func TestEveryWorkloadRunsCleanAtSmallScale(t *testing.T) {
	for _, sp := range specs {
		wr, err := runEndToEnd(sp, 1, testSizes)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if wr.Failed != 0 || wr.Metrics[failedShare].Value != 0 {
			t.Errorf("%s: %d of %d operations failed", sp.name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := wr.Metrics[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", sp.name, m.name, v.Value)
			}
		}
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, sp := range specs {
		a, b, c := buildInputs(sp, 7, testSizes), buildInputs(sp, 7, testSizes), buildInputs(sp, 8, testSizes)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave streams %x and %x", sp.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
		for _, k := range a.ks.keys {
			if len(k) < minKeyLen || len(k) > maxKeyLen {
				t.Fatalf("%s: key %q outside %d–%d bytes", sp.name, k, minKeyLen, maxKeyLen)
			}
		}
	}
}

// With one driver nothing races, so the modelled network must repeat to the
// last bit: a map-order or time-seeded choice anywhere would show here.
func TestOneDriverVirtualMetricsRepeatExactly(t *testing.T) {
	z := testSizes
	z.drivers = 1
	virtual := []string{"virt_tput_mops", "virt_lat_mean_us", "rt_per_op", "verbs_per_op", "net_bytes_per_op", "mn_bytes_per_key", "cn_cache_bytes"}
	for _, name := range []string{"mixed-zipf", "skew-ft-hot"} {
		a, err := runEndToEnd(specByName(name), 3, z)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runEndToEnd(specByName(name), 3, z)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range virtual {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

func TestCheckerFlagsBadResults(t *testing.T) {
	ks := genKeys(8, 1)
	const size = 64
	val := func(i int, writer uint8, seq uint64) []byte {
		v := make([]byte, size)
		fillValue(v, ks.hashes[i], writer, seq)
		return v
	}
	if w, s, ok := checkValue(val(0, 1, 9), ks.hashes[0], size); !ok || w != 1 || s != 9 {
		t.Fatalf("intact value rejected: writer %d seq %d ok %v", w, s, ok)
	}
	if _, _, ok := checkValue(val(1, 1, 9), ks.hashes[0], size); ok {
		t.Error("value of another key accepted")
	}
	for _, at := range []int{3, 12, 20, 40, size - 1} {
		torn := val(0, 1, 9)
		torn[at] ^= 0x40
		if _, _, ok := checkValue(torn, ks.hashes[0], size); ok {
			t.Errorf("value with byte %d flipped accepted", at)
		}
	}
	if _, _, ok := checkValue(val(0, 1, 9)[:size-8], ks.hashes[0], size); ok {
		t.Error("short value accepted")
	}

	// Read-back: keys 0..5 loaded, driver 0 updated key 2 twice, driver 1 put key 7.
	led := newLedger(2, len(ks.keys), 6)
	led.acked[0][2] = 5
	led.acked[1][7] = 3
	store := map[string][]byte{}
	for i := 0; i < 6; i++ {
		store[string(ks.keys[i])] = val(i, loaderID, 1)
	}
	store[string(ks.keys[2])] = val(2, 0, 5)
	store[string(ks.keys[7])] = val(7, 1, 3)
	get := func(k []byte) ([]byte, bool, error) { v, ok := store[string(k)]; return v, ok, nil }
	if checked, bad, _ := led.readBack(ks, 0, len(ks.keys), size, get); checked != 7 || bad != 0 {
		t.Fatalf("clean store: checked %d bad %d, want 7 and 0", checked, bad)
	}
	delete(store, string(ks.keys[4]))
	if _, bad, _ := led.readBack(ks, 0, len(ks.keys), size, get); bad != 1 {
		t.Errorf("dropped key: bad = %d, want 1", bad)
	}
	store[string(ks.keys[4])] = val(4, loaderID, 1)
	store[string(ks.keys[2])] = val(2, 0, 4) // an older write of the same driver
	if _, bad, _ := led.readBack(ks, 0, len(ks.keys), size, get); bad != 1 {
		t.Errorf("stale value: bad = %d, want 1", bad)
	}
	store[string(ks.keys[2])] = val(2, loaderID, 1) // the loader's value under an acked update
	if _, bad, _ := led.readBack(ks, 0, len(ks.keys), size, get); bad != 1 {
		t.Errorf("lost update: bad = %d, want 1", bad)
	}

	// Scans.
	kv := func(i int) sphinx.KV { return sphinx.KV{Key: ks.keys[i], Value: val(i, loaderID, 1)} }
	order := []int{0, 1, 2, 3}
	for i := range order { // sort four keys ascending
		for j := i + 1; j < len(order); j++ {
			if bytes.Compare(ks.keys[order[j]], ks.keys[order[i]]) < 0 {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	sorted := []sphinx.KV{kv(order[0]), kv(order[1]), kv(order[2]), kv(order[3])}
	lo := ks.keys[order[0]]
	if !checkScan(sorted, lo, scanLimit, size) {
		t.Fatal("sorted scan rejected")
	}
	if checkScan([]sphinx.KV{sorted[0], sorted[2], sorted[1]}, lo, scanLimit, size) {
		t.Error("unsorted scan accepted")
	}
	if checkScan(nil, lo, scanLimit, size) {
		t.Error("empty scan from a loaded key accepted")
	}
	if checkScan(sorted, ks.keys[order[1]], scanLimit, size) {
		t.Error("scan returning a key below lo accepted")
	}
	if checkScan(sorted, lo, 3, size) {
		t.Error("scan beyond its limit accepted")
	}
	sorted[1].Value = val(order[2], loaderID, 1)
	if checkScan(sorted, lo, scanLimit, size) {
		t.Error("scan carrying another key's value accepted")
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"mixed-zipf", "skew-ft-hot"} {
		wr, err := runTraced(specByName(name), 1, testSizes, dir)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, wr.Failed, wr.Attempted)
		}
		for _, m := range perLayer {
			if _, ok := wr.Metrics[m.name]; !ok {
				t.Errorf("%s: %s not reported", name, m.name)
			}
		}
		for got := range wr.Metrics {
			if !declared(perLayer, got) && !declared(extras, got) {
				t.Errorf("%s: %s reported but not declared", name, got)
			}
		}
		if !wr.Verdicts["rt_reconciled"] {
			t.Errorf("%s: stage round trips do not add up to the sessions' round trips", name)
		}
		hot := wr.Metrics["core.hot_hit_share"].Value
		if (name == "skew-ft-hot") != (hot > 0) {
			t.Errorf("%s: core.hot_hit_share = %v", name, hot)
		}
		b, err := os.ReadFile(wr.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(b, &file); err != nil {
			t.Fatalf("%s: span file: %v", name, err)
		}
		layers := map[string]int{}
		for _, s := range file.Spans {
			layers[s.Layer]++
		}
		for _, l := range []string{"benchmark", "session", "core", "fabric"} {
			if layers[l] == 0 {
				t.Errorf("%s: no %s spans in %s", name, l, wr.TraceFile)
			}
		}
	}
}

func declared(defs []metric, name string) bool {
	for _, m := range defs {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(tput, rt, failed float64) *report {
		return &report{Seconds: 8, Drivers: 2, Workloads: []workloadReport{{Name: "load", Metrics: map[string]value{
			"wall_tput_kops": {Value: tput}, "rt_per_op": {Value: rt}, failedShare: {Value: failed}, reissuedShare: {},
		}}}}
	}
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	var buf bytes.Buffer
	if compare(&buf, mk(100, 3, 0), mk(105, 3.03, 0)) {
		t.Errorf("changes inside the bounds reported as worse:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, mk(100, 3, 0), mk(130, 3.1, 0)) {
		t.Error("a 3.3 % rise of rt_per_op not reported as worse")
	}
	if got := verdictOf(buf.String(), "wall_tput_kops"); got != "better" {
		t.Errorf("wall_tput_kops +30 %%: %q, want better", got)
	}
	if got := verdictOf(buf.String(), "setup_s"); got != "unresolved" {
		t.Errorf("metric missing from both reports: %q, want unresolved", got)
	}
	buf.Reset()
	if !compare(&buf, mk(100, 3, 0), mk(100, 3, 1e-6)) {
		t.Error("a rise of failed_op_share from 0 not reported as worse")
	}
	buf.Reset()
	b := mk(100, 3, 0)
	b.Workloads[0].Metrics[reissuedShare] = value{Value: 1e-6}
	if !compare(&buf, mk(100, 3, 0), b) {
		t.Error("a rise of reissued_op_share from 0 not reported as worse")
	}
}

// More drivers than the workloads are defined for would build a mix with a
// negative share; main refuses them, and up to maxDrivers every share of
// every driver's mix must stay a share.
func TestDriverMixesStayShares(t *testing.T) {
	for _, sp := range specs {
		drivers := maxDrivers
		if sp.oneDriver {
			drivers = 1
		}
		for d, m := range driverMixes(sp.mix, drivers) {
			if m.get < 0 || m.update < 0 || m.put < 0 || m.scan < 0 || m.get+m.update+m.put+m.scan != 100 {
				t.Errorf("%s: driver %d of %d has mix %+v", sp.name, d, drivers, m)
			}
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics, with
// the same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	for _, p := range checkManifest("../BENCHMARK.json") {
		t.Error(p)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); got > want*1.001 || got < want*(1-1.0/(1<<subBits))-1 {
			t.Errorf("q%v = %v, want within one sub-bucket below %v", q, got, want)
		}
	}
	if h.mean() != 50000.5 {
		t.Errorf("mean %v", h.mean())
	}
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<40 + 12345} {
		if lo := bucketLow(bucketOf(v)); lo > v || bucketOf(lo) != bucketOf(v) {
			t.Errorf("value %d: bucket %d starts at %d", v, bucketOf(v), lo)
		}
	}
}

func TestTraceFlagTakesBothForms(t *testing.T) {
	got := mergeTraceValue([]string{"--workload", "load", "--trace", "1", "--seed", "2", "-trace"})
	want := []string{"--workload", "load", "-trace=1", "--seed", "2", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
