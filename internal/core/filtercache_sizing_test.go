package core

import "testing"

// TestFilterCacheBudgetPrecision pins the byte-budget sizing contract
// across budgets from 64 KiB up to the paper's 20 MB: SizeBytes() never
// exceeds the budget and lands within 5% of it. The old sizing chain (entries =
// budget/2·95%, then the constructor's own ~95%-load headroom and
// power-of-two rounding) could overshoot a budget by almost 2×; the
// byte-exact constructor makes the budget the filter's actual footprint.
func TestFilterCacheBudgetPrecision(t *testing.T) {
	budgets := []uint64{
		64 << 10,
		100_000, // no power-of-two structure
		128 << 10,
		333_333,
		1 << 20,
		3_333_333,
		5 << 20,
		10 << 20,
		20 << 20, // the paper's CN cache budget
	}
	for _, budget := range budgets {
		got := NewFilterCacheBytes(budget, 1).SizeBytes()
		if got > budget {
			t.Errorf("budget %d: SizeBytes %d exceeds budget", budget, got)
		}
		if float64(got) < 0.95*float64(budget) {
			t.Errorf("budget %d: SizeBytes %d is under 95%% of budget", budget, got)
		}
	}
}
