package sphinx

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestFailoverAndRepairPublicAPI exercises the fault-tolerance layer
// through the public surface: replicated cluster, kill one memory node,
// keep serving every acknowledged write, repair back to full replication.
func TestFailoverAndRepairPublicAPI(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, 300)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ft-key-%04d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.KillMemoryNode(0); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := s.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("get %q after kill: ok=%v v=%q err=%v", k, ok, v, err)
		}
	}
	if h, err := cluster.NodeHealth(0); err != nil || h != "dead" {
		t.Fatalf("node 0 health = %q err=%v, want dead", h, err)
	}
	var rep RepairReport
	for sweep := 0; sweep < 6; sweep++ {
		if rep, err = s.RepairSweep(); err != nil {
			t.Fatal(err)
		}
		if rep.Deficits == 0 {
			break
		}
	}
	if rep.Deficits != 0 {
		t.Fatalf("repair did not converge: %+v", rep)
	}
	if g := cluster.UnderReplicated(); g != 0 {
		t.Fatalf("under-replicated gauge = %d after convergence", g)
	}
}

// TestFailoverMetricsScrapeRaceClean runs a live /metrics endpoint while a
// session serves ops, a memory node is killed mid-run, and repair sweeps
// run concurrently. Run under -race this proves the fault-tolerance
// telemetry — per-node health gauges, failover counters, the
// under-replicated gauge — is scrape-safe against kills and repair.
func TestFailoverMetricsScrapeRaceClean(t *testing.T) {
	cluster, err := newTestCluster(Config{Timing: TimingInstant, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, 240)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("scrape-ft-%04d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr, err := s.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() { // repairer: its own session, concurrent with serving
		defer wg.Done()
		r := cluster.NewComputeNode().NewSession()
		for sweep := 0; sweep < 4; sweep++ {
			if _, err := r.RepairSweep(); err != nil {
				t.Errorf("repair sweep %d: %v", sweep, err)
				return
			}
		}
	}()
	for round := 0; round < 8; round++ {
		if round == 3 {
			if err := cluster.KillMemoryNode(1); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keys {
			if round%2 == 0 {
				if _, _, err := s.Get(k); err != nil {
					t.Fatalf("round %d get %q: %v", round, k, err)
				}
			} else if err := s.Put(k, []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatalf("round %d put %q: %v", round, k, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`ft_node_health{node="`,
		"ft_under_replicated",
		"ft_repair_sweeps",
		"core_failovers",
		"fabric_health_rejects",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The killed node's health gauge must read dead (2) on the live
	// endpoint.
	dead := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `ft_node_health{node="`) && strings.HasSuffix(strings.TrimSpace(line), " 2") {
			dead = true
		}
	}
	if !dead {
		t.Errorf("no ft_node_health gauge reads dead after the kill")
	}
}
