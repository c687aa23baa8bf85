package sphinx_test

import (
	"fmt"
	"testing"

	"sphinx"
)

func pipelineCluster(t *testing.T, sys sphinx.System, n int) (*sphinx.Cluster, *sphinx.Session, [][]byte) {
	t.Helper()
	cluster, err := sphinx.NewCluster(sphinx.Config{System: sys, MemoryPerNode: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("plk-%05d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprintf("plv-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return cluster, s, keys
}

func TestSessionMultiGet(t *testing.T) {
	_, s, keys := pipelineCluster(t, sphinx.SystemSphinx, 300)
	res := s.MultiGet(keys, 8)
	if len(res) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(res), len(keys))
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || string(r.Value) != fmt.Sprintf("plv-%05d", i) {
			t.Errorf("key %d: found=%v val=%q err=%v", i, r.Found, r.Value, r.Err)
		}
	}
	if r := s.MultiGet([][]byte{[]byte("plk-absent")}, 4); r[0].Found || r[0].Err != nil {
		t.Errorf("absent key: found=%v err=%v", r[0].Found, r[0].Err)
	}
}

func TestSessionMultiPutThenPipeline(t *testing.T) {
	_, s, _ := pipelineCluster(t, sphinx.SystemSphinx, 10)
	pairs := make([]sphinx.KV, 64)
	for i := range pairs {
		pairs[i] = sphinx.KV{
			Key:   []byte(fmt.Sprintf("mp-%04d", i)),
			Value: []byte(fmt.Sprintf("mv-%04d", i)),
		}
	}
	res := s.MultiPut(pairs, 8)
	for i, r := range res {
		if r.Err != nil || r.Found {
			t.Fatalf("put %d: existed=%v err=%v", i, r.Found, r.Err)
		}
	}
	// Overwrites report Found.
	res = s.MultiPut(pairs[:8], 4)
	for i, r := range res {
		if r.Err != nil || !r.Found {
			t.Errorf("overwrite %d: existed=%v err=%v", i, r.Found, r.Err)
		}
	}

	// Mixed batch through the Pipeline facade, including a scan.
	p := s.Pipeline(6)
	get := p.Get(pairs[3].Key)
	del := p.Delete(pairs[5].Key)
	upd := p.Update(pairs[7].Key, []byte("updated"))
	scan := p.Scan([]byte("mp-"), nil, 16)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if !get.Found || string(get.Value) != "mv-0003" {
		t.Errorf("pipelined get = %q found=%v", get.Value, get.Found)
	}
	if !del.Found || !upd.Found {
		t.Errorf("delete found=%v update found=%v", del.Found, upd.Found)
	}
	if len(scan.KVs) != 16 {
		t.Errorf("scan returned %d pairs, want 16", len(scan.KVs))
	}
	if get.LatencyPs <= 0 {
		t.Errorf("latency not measured: %d", get.LatencyPs)
	}
	// The deleted key is gone, the updated one changed.
	if _, ok, _ := s.Get(pairs[5].Key); ok {
		t.Error("deleted key still present")
	}
	if v, ok, _ := s.Get(pairs[7].Key); !ok || string(v) != "updated" {
		t.Errorf("updated key = %q ok=%v", v, ok)
	}
}

// TestMultiGetCoalescesRoundTrips is the issue's acceptance property at
// the public API: a pipelined MultiGet of N warm-filter keys uses
// strictly fewer doorbell round trips than N sequential Gets, and at
// depth 1 degrades to exactly the sequential count.
func TestMultiGetCoalescesRoundTrips(t *testing.T) {
	_, s, keys := pipelineCluster(t, sphinx.SystemSphinx, 400)
	const n = 200

	// Warm everything (filter, directory caches, pipeline lanes).
	for _, k := range keys {
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatal("warmup")
		}
	}
	s.MultiGet(keys, 8)

	seqBefore := s.Stats()
	for _, k := range keys[:n] {
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatal(err)
		}
	}
	seqRTs := s.Stats().RoundTrips - seqBefore.RoundTrips

	pipeBefore := s.Stats()
	res := s.MultiGet(keys[:n], 8)
	for i, r := range res {
		if r.Err != nil || !r.Found {
			t.Fatalf("pipelined get %d failed: %v", i, r.Err)
		}
	}
	pipeRTs := s.Stats().RoundTrips - pipeBefore.RoundTrips

	if pipeRTs >= seqRTs {
		t.Errorf("MultiGet depth 8 spent %d RTs, sequential %d — no coalescing", pipeRTs, seqRTs)
	}

	d1Before := s.Stats()
	res = s.MultiGet(keys[:n], 1)
	for i, r := range res {
		if r.Err != nil || !r.Found {
			t.Fatalf("depth-1 get %d failed: %v", i, r.Err)
		}
	}
	d1RTs := s.Stats().RoundTrips - d1Before.RoundTrips
	if d1RTs != seqRTs {
		t.Errorf("MultiGet depth 1 spent %d RTs, sequential %d — should match", d1RTs, seqRTs)
	}
}

// TestPipelineFallbackSequential: baseline systems execute pipelines
// sequentially but return the same results.
func TestPipelineFallbackSequential(t *testing.T) {
	for _, sys := range []sphinx.System{sphinx.SystemSMART, sphinx.SystemART} {
		t.Run(sys.String(), func(t *testing.T) {
			_, s, keys := pipelineCluster(t, sys, 100)
			res := s.MultiGet(keys, 8)
			for i, r := range res {
				if r.Err != nil || !r.Found || string(r.Value) != fmt.Sprintf("plv-%05d", i) {
					t.Errorf("key %d: found=%v val=%q err=%v", i, r.Found, r.Value, r.Err)
				}
			}
			pairs := []sphinx.KV{{Key: []byte("fb-k"), Value: []byte("fb-v")}}
			if pr := s.MultiPut(pairs, 8); pr[0].Err != nil {
				t.Fatal(pr[0].Err)
			}
			if v, ok, _ := s.Get([]byte("fb-k")); !ok || string(v) != "fb-v" {
				t.Errorf("fallback put lost: %q ok=%v", v, ok)
			}
		})
	}
}
