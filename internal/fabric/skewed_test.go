package fabric_test

import (
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
)

// TestLoadCacheSkewed pins the contention verdict on the smallest cluster it
// must hold on, two memory nodes. An idle window, a window in which both NICs
// queue alike, and a collision inside a window that kept its NIC busy for far
// longer are calm; a window in which one NIC queues and the other does not —
// its wait exactly twice the mean — is skewed.
func TestLoadCacheSkewed(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, f *fabric.Fabric, lc *fabric.LoadCache)
		want bool
	}{
		{"idle", func(_ *testing.T, _ *fabric.Fabric, lc *fabric.LoadCache) { lc.Refresh() }, false},
		{"one of two NICs queueing", func(t *testing.T, f *fabric.Fabric, lc *fabric.LoadCache) {
			fabrictest.Queue(t, f, lc, 0)
		}, true},
		{"both NICs queueing alike", func(t *testing.T, f *fabric.Fabric, lc *fabric.LoadCache) {
			fabrictest.Queue(t, f, lc, 0, 1)
		}, false},
		{"a collision in a busy window", func(t *testing.T, f *fabric.Fabric, lc *fabric.LoadCache) {
			lc.Refresh()
			fabrictest.Queue(t, f, f.NewLoadCache(0), 0)
			c := f.NewClient() // one client's READs, one after the other: busy, never queued
			buf := make([]byte, 64<<10)
			for i := 0; i < 40; i++ {
				if err := c.Read(mem.NewAddr(0, 0), buf); err != nil {
					t.Fatal(err)
				}
			}
			lc.Refresh()
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fabric.New(fabric.DefaultConfig())
			f.AddNode(1 << 20)
			f.AddNode(1 << 20)
			lc := f.NewLoadCache(0)
			tc.run(t, f, lc)
			if got := lc.Skewed(); got != tc.want {
				t.Errorf("Skewed() = %v, want %v", got, tc.want)
			}
		})
	}
}
