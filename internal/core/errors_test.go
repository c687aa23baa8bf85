package core

import (
	"errors"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
)

// smallBudget is a backoff policy tight enough to exhaust quickly under an
// always-faulting plan without making the test slow.
var smallBudget = rart.Config{Backoff: fabric.BackoffPolicy{BasePs: 1_000, CapPs: 16_000, Budget: 6}}

// TestRetriesExhaustedTyped: under a plan that fails every batch, every
// operation gives up with an error matching core.ErrRetriesExhausted via
// errors.Is, and the message names the operation and key.
func TestRetriesExhaustedTyped(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 100)
	seedClient := newTestClient(f, shared, Options{})
	if _, err := seedClient.Insert([]byte("present"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.SetFaultPlan(&fabric.FaultPlan{Seed: 1, TransientPer64k: 65536})
	c := newTestClient(f, shared, Options{})
	c.eng.Cfg.Backoff = smallBudget.Backoff

	_, _, err := c.Search([]byte("present"))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Search err = %v, want ErrRetriesExhausted", err)
	}
	if !strings.Contains(err.Error(), "search") || !strings.Contains(err.Error(), "present") {
		t.Errorf("error %q does not name the operation and key", err)
	}
	if _, err := c.Insert([]byte("newkey"), []byte("v")); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("Insert err = %v, want ErrRetriesExhausted", err)
	}
	if _, err := c.Delete([]byte("present")); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("Delete err = %v, want ErrRetriesExhausted", err)
	}
	if _, err := c.Scan(nil, nil, 0); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("Scan err = %v, want ErrRetriesExhausted", err)
	}

	// The faults stop, the same index works again for a fresh client.
	f.SetFaultPlan(nil)
	after := newTestClient(f, shared, Options{})
	if v, ok, err := after.Search([]byte("present")); err != nil || !ok || string(v) != "v" {
		t.Errorf("after faults: Search = %q,%v,%v", v, ok, err)
	}
}

// TestNodeUnavailableTyped: when the retry budget dies against a down
// node, the terminal error is the more specific ErrNodeUnavailable.
func TestNodeUnavailableTyped(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 100)
	seedClient := newTestClient(f, shared, Options{})
	if _, err := seedClient.Insert([]byte("stranded"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	node := shared.Ring.Nodes()[0]
	f.SetFaultPlan(&fabric.FaultPlan{
		Seed: 2,
		Down: []fabric.DownWindow{{Node: node, FromPs: 0, ToPs: 1 << 62}},
	})
	c := newTestClient(f, shared, Options{})
	c.eng.Cfg.Backoff = smallBudget.Backoff
	_, _, err := c.Search([]byte("stranded"))
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("Search err = %v, want ErrNodeUnavailable", err)
	}
}

// TestScanArgValidation: malformed ranges fail fast with ErrInvalidScan;
// the documented degenerate-but-legal forms still work.
func TestScanArgValidation(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.InstantConfig(), 100)
	c := newTestClient(f, shared, Options{})
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.Insert([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := c.Scan([]byte("a"), []byte("c"), -1); !errors.Is(err, ErrInvalidScan) {
		t.Errorf("negative limit err = %v, want ErrInvalidScan", err)
	}
	if _, err := c.Scan([]byte("z"), []byte("a"), 0); !errors.Is(err, ErrInvalidScan) {
		t.Errorf("lo > hi err = %v, want ErrInvalidScan", err)
	}

	// Legal degenerate forms: empty bounds are unbounded, lo == hi is a
	// point range, limit 0 is unlimited.
	if kvs, err := c.Scan(nil, nil, 0); err != nil || len(kvs) != 3 {
		t.Errorf("unbounded scan = %d kvs, %v; want 3", len(kvs), err)
	}
	if kvs, err := c.Scan([]byte{}, []byte{}, 0); err != nil || len(kvs) != 3 {
		t.Errorf("empty-bound scan = %d kvs, %v; want 3", len(kvs), err)
	}
	if kvs, err := c.Scan([]byte("b"), []byte("b"), 0); err != nil || len(kvs) != 1 || string(kvs[0].Key) != "b" {
		t.Errorf("point scan = %v, %v; want just b", kvs, err)
	}
	if kvs, err := c.Scan(nil, nil, 2); err != nil || len(kvs) != 2 {
		t.Errorf("limited scan = %d kvs, %v; want 2", len(kvs), err)
	}
}
