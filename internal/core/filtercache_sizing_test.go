package core

import (
	"testing"

	"sphinx/internal/cuckoo"
)

// TestFilterCacheBudgetPrecision pins the byte-budget sizing contract
// across the range of budgets the experiments use (64 KiB tiny-SFC
// ablations up to the paper's 20 MB): SizeBytes() never exceeds the
// budget and lands within 5% of it. The old sizing chain (entries =
// budget/2·95%, then the constructor's own ~95%-load headroom and
// power-of-two rounding) could overshoot a budget by almost 2×; the
// byte-exact constructor makes the budget the filter's actual footprint.
func TestFilterCacheBudgetPrecision(t *testing.T) {
	budgets := []uint64{
		64 << 10, // tiny-SFC ablation scale
		100_000,  // no power-of-two structure
		128 << 10,
		333_333,
		1 << 20,
		3_333_333,
		5 << 20,
		10 << 20,
		20 << 20, // the paper's CN cache budget
	}
	for _, budget := range budgets {
		for _, policy := range []cuckoo.Policy{cuckoo.PolicySecondChance, cuckoo.PolicyRandom} {
			fc := NewFilterCacheBytesPolicy(budget, 1, policy)
			got := fc.SizeBytes()
			if got > budget {
				t.Errorf("budget %d policy %d: SizeBytes %d exceeds budget", budget, policy, got)
			}
			if float64(got) < 0.95*float64(budget) {
				t.Errorf("budget %d policy %d: SizeBytes %d is under 95%% of budget", budget, policy, got)
			}
		}
	}
}
