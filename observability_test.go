package sphinx

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestClusterObservabilityPlane drives the cluster plane with explicit
// virtual-clock samples: per-MN families appear for every node, verb
// shares sum to one, a configured SLO reports burn 0 under in-objective
// load, and killing a node fires the mn-dead alert which resolves is
// never expected (dead stays dead) while the health gauge reflects it.
func TestClusterObservabilityPlane(t *testing.T) {
	cl, err := newTestCluster(Config{
		MemoryNodes:           3,
		ObservabilityWindowPs: 1_000_000, // 1 µs virtual windows
		SLOs:                  []SLO{{Name: "get-p99", Op: OpGet, Quantile: 0.99, LatencyPs: 1 << 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cl.NewComputeNode().NewSession()

	// Feed the SLO engine from this session's histograms, as
	// ServeObservability would.
	cl.sloSource.Store(s.metrics)

	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("obs-key-%04d", i))
		if err := s.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("obs-key-%04d", i))
		if _, ok, err := s.Get(key); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	cl.SampleObservability(s.fc.Clock())

	snap := cl.Observability()
	if len(snap.Nodes) != 3 {
		t.Fatalf("plane sees %d nodes, want 3", len(snap.Nodes))
	}
	var share float64
	var rts, verbs uint64
	for _, n := range snap.Nodes {
		if !n.Member || n.Health != "closed" {
			t.Fatalf("node %d: member=%v health=%q", n.Node, n.Member, n.Health)
		}
		share += n.VerbShare
		rts += n.WindowRTs
		verbs += n.WindowVerbs
		if n.ArenaOccupancy <= 0 || n.ArenaOccupancy >= 1 {
			t.Fatalf("node %d arena occupancy = %v", n.Node, n.ArenaOccupancy)
		}
		if len(n.BusyWindows) == 0 {
			t.Fatalf("node %d has no busy-ratio windows", n.Node)
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("verb shares sum to %v, want 1", share)
	}
	// Per-MN attributed round trips reconcile exactly with the client.
	if clientRTs := s.fc.RoundTrips(); rts != clientRTs {
		t.Fatalf("sum of per-MN windowed RTs %d != client RoundTrips %d", rts, clientRTs)
	}
	if clientVerbs := s.fc.Stats().Verbs; verbs != clientVerbs {
		t.Fatalf("sum of per-MN windowed verbs %d != client verbs %d", verbs, clientVerbs)
	}

	// The generous SLO burns nothing; attainment is perfect.
	if len(snap.SLOs) != 1 {
		t.Fatalf("SLO statuses = %d, want 1", len(snap.SLOs))
	}
	slo := snap.SLOs[0]
	if slo.FastBurn != 0 || slo.SlowBurn != 0 || slo.Attainment != 1 {
		t.Fatalf("steady SLO status = %+v", slo)
	}
	if slo.WindowOps == 0 {
		t.Fatal("SLO engine saw no ops")
	}

	// The session registry exports the plane families.
	reg := s.Registry().Snapshot()
	for _, k := range []string{
		`mn_busy_ratio{node="0"}`, `mn_busy_ratio{node="2"}`,
		`slo_fast_burn{slo="get-p99"}`, `alert_firing`,
	} {
		if _, ok := reg.Gauges[k]; !ok {
			t.Fatalf("registry missing gauge %q", k)
		}
	}
	if got := reg.Counters[`mn_round_trips_total{node="0"}`] +
		reg.Counters[`mn_round_trips_total{node="1"}`] +
		reg.Counters[`mn_round_trips_total{node="2"}`]; got != s.fc.RoundTrips() {
		t.Fatalf("registry mn_round_trips_total sum %d != client %d", got, s.fc.RoundTrips())
	}

	// Kill a node: the health signal flips and the mn-dead default rule
	// fires on the next sample.
	if err := cl.KillMemoryNode(2); err != nil {
		t.Fatal(err)
	}
	// Let the breaker learn the death: sweep until some batch touches
	// the killed node (errors expected).
	for i := 0; i < 200; i++ {
		_, _, _ = s.Get([]byte(fmt.Sprintf("obs-key-%04d", i)))
	}
	for i := 0; i < 3; i++ {
		cl.SampleObservability(s.fc.Clock() + int64(i+1)*1_000_000)
	}
	var deadFiring bool
	for _, a := range cl.Alerts() {
		if a.Rule == "mn-dead" && a.State.String() == "firing" {
			deadFiring = true
			if a.Fired == 0 {
				t.Fatalf("firing alert with zero Fired counter: %+v", a)
			}
		}
	}
	if !deadFiring {
		t.Fatalf("mn-dead alert not firing after kill; alerts = %+v", cl.Alerts())
	}
}

// TestServeObservabilityPlaneEndpoints checks /mn, /slo and /alerts are
// served alongside the existing endpoints.
func TestServeObservabilityPlaneEndpoints(t *testing.T) {
	cl, err := newTestCluster(Config{
		Timing: TimingInstant,
		SLOs:   []SLO{{Name: "get-p99", Op: OpGet, Quantile: 0.99, LatencyPs: 1 << 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cl.NewComputeNode().NewSession()
	if err := s.Put([]byte("serve-key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := s.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl.SampleObservability(1_000_000)

	for path, want := range map[string]string{
		"/mn":     `"nodes"`,
		"/slo":    `"get-p99"`,
		"/alerts": `[`,
	} {
		body := httpGet(t, "http://"+addr+path)
		if !strings.Contains(body, want) {
			t.Fatalf("%s missing %q:\n%s", path, want, body)
		}
	}
	body := httpGet(t, "http://"+addr+"/metrics")
	for _, want := range []string{"sphinx_mn_busy_ratio{node=", "sphinx_slo_attainment{slo="} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
