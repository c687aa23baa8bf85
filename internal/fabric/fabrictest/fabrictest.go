// Package fabrictest gives tests of code that acts on the simulated fabric's
// contention signal (fabric.LoadCache) real NIC queueing to act on.
package fabrictest

import (
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// collideAtPs is the virtual instant the colliding READs are posted at: far
// beyond any test's own traffic, so nothing else shares their NIC time.
const collideAtPs = 1_000_000_000_000_000

// collideBytes is each colliding READ's size: under the RDMA timing model
// (fabric.DefaultConfig) one such READ takes a NIC 2.6 µs, more than a
// capacity slot of its timeline, so the second one posted at the same
// instant queues behind the first.
const collideBytes = 64 << 10

// Queue makes each named memory node's NIC really queue: two fabric clients
// post one READ each to it at the same virtual instant. lc is refreshed
// before and after, so its window holds the collisions alone. Naming one node
// makes one NIC queue out of proportion to the others; naming every node
// makes them all queue alike. The test fails if a node did not queue — an
// instant timing model cannot.
func Queue(tb testing.TB, f *fabric.Fabric, lc *fabric.LoadCache, nodes ...mem.NodeID) {
	tb.Helper()
	lc.Refresh()
	before := f.NICStats()
	buf := make([]byte, collideBytes)
	for _, n := range nodes {
		for i := 0; i < 2; i++ {
			c := f.NewClient()
			c.AdvanceClock(collideAtPs)
			if err := c.Read(mem.NewAddr(n, 0), buf); err != nil {
				tb.Fatalf("fabrictest: READ at node %d: %v", n, err)
			}
		}
	}
	after := f.NICStats()
	for _, n := range nodes {
		if after[n].WaitPs == before[n].WaitPs {
			tb.Fatalf("fabrictest: node %d's NIC did not queue (timing model %+v)", n, f.Config())
		}
	}
	lc.Refresh()
}
