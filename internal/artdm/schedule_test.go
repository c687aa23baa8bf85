package artdm

import (
	"fmt"
	"testing"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/mem"
)

// TestScheduledInsertsKeepEveryKey is the concurrent-insert shape that loses
// acknowledged keys under goroutines (TestConcurrentClients), one verb-granular
// interleaving at a time: 8 clients insert 6 keys each into a fresh 3 × 1 MiB
// cluster, the schedule picked at every verb from the seed — seeds 1 to 20 —
// and every key acknowledged reads back.
func TestScheduledInsertsKeepEveryKey(t *testing.T) {
	const workers, perWorker = 8, 6
	for seed := uint64(1); seed <= 20; seed++ {
		f := fabric.New(fabric.DefaultConfig())
		nodes := make([]mem.NodeID, 3)
		for i := range nodes {
			nodes[i] = f.AddNode(1 << 20)
		}
		shared, err := Bootstrap(f, consistenthash.New(nodes, 0))
		if err != nil {
			t.Fatal(err)
		}
		acked := make([]int, workers)
		var procs []fabrictest.Proc
		for w := 0; w < workers; w++ {
			c := newTestClient(f, shared)
			procs = append(procs, fabrictest.Proc{C: c.Engine().C, Fn: func() {
				for i := 0; i < perWorker; i++ {
					if _, err := c.Insert([]byte(fmt.Sprintf("w%02d-key-%04d", w, i)), []byte(fmt.Sprint(i))); err != nil {
						t.Errorf("seed %d: w%d insert %d: %v", seed, w, i, err)
						return
					}
					acked[w]++
				}
			}})
		}
		steps := fabrictest.Run(f, fabrictest.NewSeeded(seed), procs...)
		r := newTestClient(f, shared)
		for w := 0; w < workers; w++ {
			for i := 0; i < acked[w]; i++ {
				k := fmt.Sprintf("w%02d-key-%04d", w, i)
				if v, ok, err := r.Search([]byte(k)); err != nil || !ok || string(v) != fmt.Sprint(i) {
					t.Errorf("seed %d (%d parks): acked key %q reads %q, %v, %v", seed, len(steps), k, v, ok, err)
				}
			}
		}
	}
}
