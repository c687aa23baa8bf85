package core

import (
	"fmt"
	"testing"
)

func TestHotSetPromotesAtThreshold(t *testing.T) {
	hs := NewHotSet(0, 1, 3)
	hs.SetThresholds(5, 2, 1<<40)
	key := []byte("k")
	for i := 1; i < 5; i++ {
		if a := hs.Observe(key); a != HotNone {
			t.Fatalf("Observe #%d = %v, want HotNone", i, a)
		}
	}
	if a := hs.Observe(key); a != HotPromoteNow {
		t.Fatalf("Observe #5 = %v, want HotPromoteNow", a)
	}
	if !hs.Claimed(key) {
		t.Error("key not claimed after promote signal")
	}
	// Further observations on a claimed key stay quiet.
	if a := hs.Observe(key); a != HotNone {
		t.Errorf("Observe on claimed = %v, want HotNone", a)
	}
}

func TestHotSetUnclaimAllowsRetry(t *testing.T) {
	hs := NewHotSet(0, 1, 1)
	hs.SetThresholds(2, 1, 1<<40)
	key := []byte("k")
	hs.Observe(key)
	if a := hs.Observe(key); a != HotPromoteNow {
		t.Fatalf("no promote signal: %v", a)
	}
	hs.Unclaim(key)
	if hs.Claimed(key) {
		t.Fatal("still claimed after Unclaim")
	}
	if a := hs.Observe(key); a != HotPromoteNow {
		t.Errorf("re-observe after Unclaim = %v, want HotPromoteNow", a)
	}
}

func TestHotSetDecayDemotes(t *testing.T) {
	hs := NewHotSet(0, 1, 1)
	// Promote at 4, demote below 3, decay every 8 observations.
	hs.SetThresholds(4, 3, 8)
	key := []byte("k")
	var a HotAction
	for i := 0; i < 4; i++ {
		a = hs.Observe(key)
	}
	if a != HotPromoteNow {
		t.Fatalf("no promotion: %v", a)
	}
	// Burn observations on other keys to advance decay epochs; the
	// claimed key's count halves per epoch (4 → 2 < 3 after one).
	for i := 0; i < 64; i++ {
		hs.Observe([]byte(fmt.Sprintf("other-%d", i)))
	}
	got := hs.Observe(key)
	if got != HotDemoteNow {
		t.Errorf("Observe after decay = %v, want HotDemoteNow", got)
	}
	if hs.Claimed(key) {
		t.Error("still claimed after demote signal")
	}
}

func TestHotSetFlushRoutesOncePerEpoch(t *testing.T) {
	hs := NewHotSet(0, 1, 2)
	key := []byte("k")
	hs.Rank(0).Learn(key, 64, 1)
	hs.Rank(1).Learn(key, 128, 1)
	if _, _, ok := hs.Rank(1).Lookup(key); !ok {
		t.Fatal("route not learned")
	}
	if !hs.FlushRoutes(1) {
		t.Fatal("first flush at epoch 1 did not run")
	}
	if _, _, ok := hs.Rank(0).Lookup(key); ok {
		t.Error("rank 0 route survived the flush")
	}
	if _, _, ok := hs.Rank(1).Lookup(key); ok {
		t.Error("rank 1 route survived the flush")
	}
	if hs.FlushRoutes(1) {
		t.Error("second flush at the same epoch ran again")
	}
	hs.Rank(0).Learn(key, 192, 1)
	if !hs.FlushRoutes(2) {
		t.Error("flush at epoch 2 did not run")
	}
}

func TestHotSetSizeWithinBudget(t *testing.T) {
	const budget = 128 << 10
	hs := NewHotSet(budget, 1, 3)
	if got := hs.SizeBytes(); got > budget {
		t.Errorf("SizeBytes = %d exceeds budget %d", got, budget)
	}
	if hs.Ranks() != 3 {
		t.Errorf("Ranks = %d, want 3", hs.Ranks())
	}
}
