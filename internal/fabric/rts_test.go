package fabric

import (
	"testing"

	"sphinx/internal/mem"
)

func sumNICRTs(f *Fabric) uint64 {
	var total uint64
	for _, s := range f.NICStats() {
		total += s.RoundTrips
	}
	return total
}

// TestNICRoundTripAttribution checks that every completed doorbell batch
// is charged to exactly one NIC: single-node batches charge their
// target, multi-node batches charge only the gating node, and the
// per-node totals always sum to the clients' RoundTrips.
func TestNICRoundTripAttribution(t *testing.T) {
	f := New(DefaultConfig())
	a := f.AddNode(1 << 20)
	b := f.AddNode(1 << 20)
	c := f.NewClient()

	// Single-node batches: each charged to its own target.
	if err := c.Batch(writeOps(a, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Batch(writeOps(b, 0, 2)); err != nil {
		t.Fatal(err)
	}
	st := f.NICStats()
	if st[a].RoundTrips != 1 || st[b].RoundTrips != 1 {
		t.Fatalf("single-node attribution: a=%d b=%d, want 1/1", st[a].RoundTrips, st[b].RoundTrips)
	}

	// A batch spanning both nodes is still one round trip, charged to
	// exactly one of them (the heavier share gates completion).
	ops := append(writeOps(a, 64, 1), Op{Kind: Write, Addr: mem.NewAddr(b, 64),
		Data: make([]byte, 4096)})
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	st = f.NICStats()
	if got := st[a].RoundTrips + st[b].RoundTrips; got != 3 {
		t.Fatalf("after spanning batch total NIC rts = %d, want 3", got)
	}
	if st[b].RoundTrips != 2 {
		t.Fatalf("spanning batch charged to node %v, want the 4 KiB share on b", st)
	}
	if got, want := sumNICRTs(f), c.RoundTrips(); got != want {
		t.Fatalf("NIC rts %d != client rts %d", got, want)
	}
}

// TestNICRoundTripsReconcileUnderFaults runs a fault-heavy multi-node
// workload and checks the invariant Σ per-NIC RoundTrips == Σ client
// RoundTrips: rejected, crashed, and node-down batches charge neither
// side; transient and timeout batches charge both.
func TestNICRoundTripsReconcileUnderFaults(t *testing.T) {
	f := New(DefaultConfig())
	a := f.AddNode(1 << 20)
	b := f.AddNode(1 << 20)
	d := f.AddNode(1 << 20)
	f.SetFaultPlan(&FaultPlan{
		Seed:            42,
		TransientPer64k: 3000,
		TimeoutPer64k:   1500,
		DelayPer64k:     1500,
		Down:            []DownWindow{{Node: d, FromPs: 0, ToPs: 1 << 40}},
	})

	nodes := []mem.NodeID{a, b, d}
	var clientRTs uint64
	for w := 0; w < 4; w++ {
		c := f.NewClient()
		for i := 0; i < 300; i++ {
			n1 := nodes[i%3]
			n2 := nodes[(i+1)%3]
			ops := writeOps(n1, uint64(128+i), 2)
			if i%4 == 0 { // every fourth batch spans two nodes
				ops = append(ops, Op{Kind: Write, Addr: mem.NewAddr(n2, uint64(4096+i)),
					Data: []byte{0xff}})
			}
			_ = c.Batch(ops) // faults expected; accounting is what's under test
		}
		clientRTs += c.RoundTrips()
	}
	if got := sumNICRTs(f); got != clientRTs {
		t.Fatalf("NIC rts %d != client rts %d under faults", got, clientRTs)
	}
	if clientRTs == 0 {
		t.Fatal("workload produced no round trips")
	}

	// Killing a node mid-stream keeps the invariant: discovery and
	// breaker rejects charge neither side.
	f.KillNode(b)
	c := f.NewClient()
	for i := 0; i < 100; i++ {
		_ = c.Batch(writeOps(nodes[i%3], uint64(8192+i), 1))
	}
	clientRTs += c.RoundTrips()
	if got := sumNICRTs(f); got != clientRTs {
		t.Fatalf("NIC rts %d != client rts %d after kill", got, clientRTs)
	}

	// ResetTimelines preserves the cumulative attribution counters.
	before := sumNICRTs(f)
	f.ResetTimelines()
	if got := sumNICRTs(f); got != before {
		t.Fatalf("ResetTimelines dropped rts: %d -> %d", before, got)
	}
}
