package bench

import "testing"

// TestSkewGateRequiresGatePoint pins the fail-closed contract of the
// skew report: a custom theta sweep that omits the θ≈0.99 gate point
// cannot pass — the speedup/imbalance gate was never evaluated, so a
// green verdict would assert nothing beyond reconciliation.
func TestSkewGateRequiresGatePoint(t *testing.T) {
	yes := true
	rep := &SkewReport{Gate: SkewSpeedupGate, Points: []SkewPoint{
		{Theta: 0, Speedup: 1.0, HotReconciled: &yes},
		{Theta: 1.2, Speedup: 3.0, BaseImbalance: 5, HotImbalance: 2, HotReconciled: &yes},
	}}
	if gated := rep.evaluate(); gated || rep.Pass {
		t.Errorf("sweep without theta~0.99: gated=%v pass=%v, want false/false", gated, rep.Pass)
	}
}

// TestSkewGateEvaluates covers the gate point present in both verdicts:
// clearing the speedup and imbalance thresholds passes, missing the
// speedup threshold fails.
func TestSkewGateEvaluates(t *testing.T) {
	yes := true
	pass := &SkewReport{Gate: SkewSpeedupGate, Points: []SkewPoint{
		{Theta: 0.99, Speedup: 2.0, BaseImbalance: 5, HotImbalance: 2, HotReconciled: &yes},
	}}
	if gated := pass.evaluate(); !gated || !pass.Pass {
		t.Errorf("passing sweep: gated=%v pass=%v, want true/true", gated, pass.Pass)
	}
	if pass.SpeedupAt099 != 2.0 {
		t.Errorf("SpeedupAt099 = %v, want 2.0", pass.SpeedupAt099)
	}
	fail := &SkewReport{Gate: SkewSpeedupGate, Points: []SkewPoint{
		{Theta: 0.99, Speedup: 1.1, BaseImbalance: 5, HotImbalance: 2, HotReconciled: &yes},
	}}
	if gated := fail.evaluate(); !gated || fail.Pass {
		t.Errorf("slow sweep: gated=%v pass=%v, want true/false", gated, fail.Pass)
	}
}

// TestSkewGateUniformPromotesNothing covers the uniform point's half of the
// gate: under uniform load no NIC queues out of proportion, so a hot layer
// that promoted anything there fails the sweep however fast it ran.
func TestSkewGateUniformPromotesNothing(t *testing.T) {
	yes := true
	for _, promotes := range []uint64{0, 1} {
		rep := &SkewReport{Gate: SkewSpeedupGate, Points: []SkewPoint{
			{Theta: 0, Speedup: 1.0, HotReconciled: &yes, HotPromotes: promotes},
			{Theta: 0.99, Speedup: 2.0, BaseImbalance: 5, HotImbalance: 2, HotReconciled: &yes, HotPromotes: 40},
		}}
		if gated := rep.evaluate(); !gated || rep.Pass != (promotes == 0) {
			t.Errorf("uniform point with %d promotions: gated=%v pass=%v, want true/%v", promotes, gated, rep.Pass, promotes == 0)
		}
	}
}
