package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
)

// ledgerPass drives one plain ledgered pass: every worker runs ops ledger
// operations on a NewIndex client.
func ledgerPass(cl *Cluster, led *ledger, ops int) error {
	_, err := cl.drive(len(led.shards), sequential(cl.NewIndex), func(w *worker) error {
		rng := led.stream(w.id)
		for i := 0; i < ops; i++ {
			if _, _, err := led.op(w, &rng, i); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// TestLedgerVerifyReportsLossAndStaleness is the oracle's negative test:
// after a clean pass verify must find every acknowledged write, and after
// the cluster is corrupted behind the ledger's back — one acked key
// deleted, another overwritten through a client the ledger does not see —
// it must report exactly one lost and one wrong.
func TestLedgerVerifyReportsLossAndStaleness(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Keys, cfg.Workers = 600, 2
	cl, _, err := loaded(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(cl.keys, cfg.Workers, cfg.Seed)
	if err := ledgerPass(cl, led, 80); err != nil {
		t.Fatal(err)
	}
	verify := func() (verified, lost, wrong uint64) {
		idx, _ := cl.NewIndex(0)
		led.verify(idx, &verified, &lost, &wrong)
		return
	}
	if verified, lost, wrong := verify(); led.size() == 0 || verified != uint64(led.size()) || lost != 0 || wrong != 0 {
		t.Fatalf("clean pass: acked %d, verified %d, lost %d, wrong %d", led.size(), verified, lost, wrong)
	}

	// One acked key of each worker's shard (any will do).
	var victims [][]byte
	for w, acked := range led.acked {
		for ki := range acked {
			victims = append(victims, led.shards[w][ki])
			break
		}
	}
	if len(victims) != 2 {
		t.Fatalf("want an acked key per worker, have %d", len(victims))
	}
	rogue, _ := cl.NewIndex(1)
	if ok, err := rogue.Delete(victims[0]); err != nil || !ok {
		t.Fatalf("delete behind the ledger: ok=%v err=%v", ok, err)
	}
	if ok, err := rogue.Update(victims[1], []byte("not-what-was-acked")); err != nil || !ok {
		t.Fatalf("overwrite behind the ledger: ok=%v err=%v", ok, err)
	}
	if verified, lost, wrong := verify(); verified != uint64(led.size()) || lost != 1 || wrong != 1 {
		t.Errorf("corrupted cluster: verified %d of %d, lost %d, wrong %d; want lost 1, wrong 1",
			verified, led.size(), lost, wrong)
	}

}

// TestElasticExperimentSmoke runs the add-then-drain chaos experiment at
// reduced scale and asserts its durability and convergence gates. (CI runs
// the same experiment through sphinxbench with -race at a scale where the
// rebalancing and SLO shapes are meaningful too, and gates on the JSON.)
func TestElasticExperimentSmoke(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Workers = 3
	cfg.OpsPerWorker = 300
	_, rep, err := Elastic(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 || rep.VerifiedReads != rep.AckedWrites {
		t.Errorf("verification incomplete: acked %d, verified %d", rep.AckedWrites, rep.VerifiedReads)
	}
	if rep.LostAckedWrites != 0 || rep.WrongValueReads != 0 {
		t.Errorf("lost %d, wrong %d acked writes", rep.LostAckedWrites, rep.WrongValueReads)
	}
	if rep.LostAfterDecommission != 0 || rep.WrongAfterDecommission != 0 {
		t.Errorf("after the decommission kill: lost %d, wrong %d", rep.LostAfterDecommission, rep.WrongAfterDecommission)
	}
	if rep.FinalEpoch != 2 || !rep.Converged || rep.Cutovers != 2 {
		t.Errorf("final epoch %d converged %v cutovers %d, want 2 true 2", rep.FinalEpoch, rep.Converged, rep.Cutovers)
	}
	if len(rep.Windows) != 3 {
		t.Fatalf("%d steady windows, want 3", len(rep.Windows))
	}
	for _, w := range rep.Windows {
		if w.RTsReconciled == nil || !*w.RTsReconciled {
			t.Errorf("window %s: per-MN round trips do not reconcile with the clients' %d", w.Window, w.ClientRTs)
		}
	}
}

// TestOneWorkerRunsRepeatExactly pins the harness's determinism: with one
// worker on one CN nothing is left to goroutine scheduling, so every
// experiment's report repeats field for field — wall-clock fields aside.
// EXPERIMENTS.md's one-worker equivalence procedure compares a harness
// change against its parent on the strength of this.
func TestOneWorkerRunsRepeatExactly(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Keys, cfg.Workers, cfg.CNs, cfg.OpsPerWorker, cfg.Metrics = 2000, 1, 1, 200, true
	// The faulty lane: every retry, completion and lock-wait loop of all four
	// systems, wait for wait — each backoff wait draws its jitter from the
	// client's stream, so one wait more or less moves everything behind it.
	// Metrics are off: the LAC reconciliation gate rightly rejects aborts.
	faulty := cfg
	faulty.Metrics = false
	faulty.Faults = &fabric.FaultPlan{Seed: 1, TransientPer64k: 600, TimeoutPer64k: 300}
	experiments := map[string]func() (JSONReport, error){
		"fig4": func() (rep JSONReport, err error) {
			rep.Results, err = Fig4(cfg, nil, io.Discard)
			return
		},
		"fig4 under faults": func() (rep JSONReport, err error) {
			rep.Results, err = Fig4(faulty, nil, io.Discard)
			return
		},
		"fastpath": func() (rep JSONReport, err error) {
			rep.Results, err = Fastpath(cfg, io.Discard)
			return
		},
		"pipeline": func() (rep JSONReport, err error) {
			rep.Results, err = PipelineSweep(cfg, nil, io.Discard)
			return
		},
		"failover": func() (rep JSONReport, err error) {
			rep.Failover, err = Failover(cfg, io.Discard)
			return
		},
		"elastic": func() (rep JSONReport, err error) {
			rep.Results, rep.Elastic, err = Elastic(cfg, io.Discard)
			return
		},
	}
	for name, run := range experiments {
		var runs [2][]byte
		for i := range runs {
			rep, err := run()
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			for j := range rep.Results {
				r := &rep.Results[j]
				r.WallElapsedNs, r.WallMops, r.ParallelEfficiency = 0, 0, 0
			}
			if runs[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("%s: two one-worker runs differ:\n%s\n%s", name, runs[0], runs[1])
		}
	}
}
