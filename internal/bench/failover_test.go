package bench

import (
	"io"
	"testing"

	"sphinx/internal/dataset"
)

// TestFailoverExperimentSmoke runs the MN-loss chaos experiment at reduced
// scale and asserts its acceptance gates: no acknowledged write lost or
// stale, repair converged to zero deficits, and the cluster served reads
// while repairing. (CI runs the same experiment through sphinxbench with
// -race and gates on the JSON report.)
func TestFailoverExperimentSmoke(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Keys = 6000
	cfg.OpsPerWorker = 300
	rep, err := Failover(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 || rep.VerifiedReads != rep.AckedWrites {
		t.Errorf("verification incomplete: %+v", rep)
	}
	if rep.LostAckedWrites != 0 {
		t.Errorf("lost %d acked writes", rep.LostAckedWrites)
	}
	if rep.WrongValueReads != 0 {
		t.Errorf("%d stale reads of acked writes", rep.WrongValueReads)
	}
	if rep.UnderReplicatedFinal != 0 {
		t.Errorf("repair did not converge: under-replicated %d after %d sweeps",
			rep.UnderReplicatedFinal, rep.RepairSweeps)
	}
	if rep.RepairCopied == 0 {
		t.Errorf("repair copied no replicas after a kill")
	}
	if rep.ReadsDuringRepair == 0 {
		t.Errorf("no reads served during repair")
	}
	if rep.Failovers == 0 {
		t.Errorf("no failovers recorded after the kill")
	}
	if rep.PostKillOps == 0 || rep.PreKillOps == 0 {
		t.Errorf("latency split empty: pre=%d post=%d", rep.PreKillOps, rep.PostKillOps)
	}
	// The split is by op index: every worker's first OpsPerWorker/2 ops
	// ran before the kill, whatever the goroutines' schedule.
	if want := uint64(cfg.Workers * (cfg.OpsPerWorker / 2)); rep.PreKillOps != want {
		t.Errorf("pre-kill sample is %d ops, want %d (%d workers x %d)", rep.PreKillOps, want, cfg.Workers, cfg.OpsPerWorker/2)
	}
}
