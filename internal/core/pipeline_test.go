package core

import (
	"fmt"
	"testing"

	"sphinx/internal/fabric"
)

// loadKeys inserts n keys through a sequential client and returns them.
func loadKeys(t *testing.T, f *fabric.Fabric, shared Shared, filter *FilterCache, n int) [][]byte {
	t.Helper()
	c := newTestClient(f, shared, Options{Filter: filter})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("pipe-key-%05d", i))
		if _, err := c.Insert(keys[i], []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestPipelineGetCorrectness(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 2000)
	filter := NewFilterCache(1<<16, 9)
	keys := loadKeys(t, f, shared, filter, 500)

	pl := NewPipeline(shared, f.NewClient(), Options{Filter: filter, LeafCache: testLAC(0)})
	ops := make([]*PipeOp, len(keys))
	for i, k := range keys {
		ops[i] = &PipeOp{Kind: PipeGet, Key: k}
	}
	pl.Run(ops, 8)
	for i, op := range ops {
		if op.Err != nil {
			t.Fatalf("op %d: %v", i, op.Err)
		}
		if !op.Found || string(op.Val) != fmt.Sprintf("val-%05d", i) {
			t.Errorf("op %d: found=%v val=%q", i, op.Found, op.Val)
		}
		if op.EndPs <= op.StartPs {
			t.Errorf("op %d: non-positive latency window [%d,%d]", i, op.StartPs, op.EndPs)
		}
	}
	// Missing keys report Found=false without error.
	miss := []*PipeOp{{Kind: PipeGet, Key: []byte("pipe-key-nothere")}}
	pl.Run(miss, 4)
	if miss[0].Err != nil || miss[0].Found {
		t.Errorf("missing key: found=%v err=%v", miss[0].Found, miss[0].Err)
	}
}

// TestPipelineLanesRunWithoutFilter: the lanes of a pipeline given no filter
// cache share none; every locate reads all prefixes' bucket pairs.
func TestPipelineLanesRunWithoutFilter(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	pl := NewPipeline(shared, f.NewClient(), Options{})
	ops := make([]*PipeOp, 0, 256)
	for i := 0; i < 128; i++ {
		ops = append(ops, &PipeOp{Kind: PipePut, Key: []byte(fmt.Sprintf("bare-%04d", i)), Value: []byte("v")})
	}
	pl.Run(ops, 6)
	for i := 0; i < 128; i++ {
		ops = append(ops, &PipeOp{Kind: PipeGet, Key: []byte(fmt.Sprintf("bare-%04d", i))})
	}
	pl.Run(ops[128:], 6)
	for i, op := range ops {
		if op.Err != nil || (op.Kind == PipeGet && !op.Found) {
			t.Fatalf("op %d: found=%v err=%v", i, op.Found, op.Err)
		}
	}
	if st := pl.Stats(); st.FilterHits != 0 || st.FilterFallbacks == 0 {
		t.Errorf("lanes counted %d filter hits, %d filter-less landings; want 0 and some", st.FilterHits, st.FilterFallbacks)
	}
}

func TestPipelineMixedOps(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	pl := NewPipeline(shared, f.NewClient(), withCaches(shared, Options{}, 0))

	const n = 200
	puts := make([]*PipeOp, n)
	for i := range puts {
		puts[i] = &PipeOp{Kind: PipePut,
			Key:   []byte(fmt.Sprintf("mix-%04d", i)),
			Value: []byte(fmt.Sprintf("v0-%04d", i))}
	}
	pl.Run(puts, 6)
	for i, op := range puts {
		if op.Err != nil || op.Found {
			t.Fatalf("put %d: existed=%v err=%v", i, op.Found, op.Err)
		}
	}

	// Update evens, delete every fourth, get all — distinct keys per window.
	var ops []*PipeOp
	for i := 0; i < n; i += 2 {
		ops = append(ops, &PipeOp{Kind: PipeUpdate,
			Key:   []byte(fmt.Sprintf("mix-%04d", i)),
			Value: []byte(fmt.Sprintf("v1-%04d", i))})
	}
	for i := 1; i < n; i += 4 {
		ops = append(ops, &PipeOp{Kind: PipeDelete, Key: []byte(fmt.Sprintf("mix-%04d", i))})
	}
	pl.Run(ops, 6)
	for i, op := range ops {
		if op.Err != nil || !op.Found {
			t.Fatalf("mutate %d: found=%v err=%v", i, op.Found, op.Err)
		}
	}

	gets := make([]*PipeOp, n)
	for i := range gets {
		gets[i] = &PipeOp{Kind: PipeGet, Key: []byte(fmt.Sprintf("mix-%04d", i))}
	}
	pl.Run(gets, 6)
	for i, op := range gets {
		if op.Err != nil {
			t.Fatalf("get %d: %v", i, op.Err)
		}
		switch {
		case i%4 == 1: // deleted
			if op.Found {
				t.Errorf("get %d: deleted key still present", i)
			}
		case i%2 == 0: // updated
			if !op.Found || string(op.Val) != fmt.Sprintf("v1-%04d", i) {
				t.Errorf("get %d: found=%v val=%q want v1", i, op.Found, op.Val)
			}
		default: // untouched
			if !op.Found || string(op.Val) != fmt.Sprintf("v0-%04d", i) {
				t.Errorf("get %d: found=%v val=%q want v0", i, op.Found, op.Val)
			}
		}
	}
}

// TestPipelineCoalescesWarmGets is the core round-trip accounting proof:
// N warm-filter Gets pipelined at depth d must spend strictly fewer
// doorbell round trips than N sequential Gets (which pay 3 RTs each),
// because same-stage verbs of concurrent ops share flushes. The
// leaf-address cache is disabled on both sides so the 3-RT hash path is
// actually what's being coalesced; TestPipelineCoalescesSpecGets covers
// the 1-RT speculative path.
func TestPipelineCoalescesWarmGets(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 2000)
	filter := NewFilterCache(1<<16, 9)
	keys := loadKeys(t, f, shared, filter, 512)

	// Sequential reference: warm client, count RTs for N gets.
	seq := NewClient(shared, f.NewClient(), Options{Filter: filter})
	warm := func(get func(k []byte)) {
		for _, k := range keys {
			get(k)
		}
	}
	warm(func(k []byte) {
		if _, ok, err := seq.Search(k); err != nil || !ok {
			t.Fatal("warmup", err)
		}
	})
	const n = 256
	before := seq.Engine().C.Stats()
	for _, k := range keys[:n] {
		if _, ok, err := seq.Search(k); err != nil || !ok {
			t.Fatal(err)
		}
	}
	seqRTs := seq.Engine().C.Stats().Sub(before).RoundTrips

	// Pipelined: same warm state, same N gets, depth 8.
	main := f.NewClient()
	pl := NewPipeline(shared, main, Options{Filter: filter})
	warmOps := make([]*PipeOp, len(keys))
	for i, k := range keys {
		warmOps[i] = &PipeOp{Kind: PipeGet, Key: k}
	}
	pl.Run(warmOps, 8) // warm every lane's directory cache
	pbefore := main.Stats()
	ops := make([]*PipeOp, n)
	for i := range ops {
		ops[i] = &PipeOp{Kind: PipeGet, Key: keys[i]}
	}
	pl.Run(ops, 8)
	for i, op := range ops {
		if op.Err != nil || !op.Found {
			t.Fatalf("pipelined get %d: found=%v err=%v", i, op.Found, op.Err)
		}
	}
	pipeRTs := main.Stats().Sub(pbefore).RoundTrips

	if seqRTs != 3*n {
		t.Errorf("sequential warm gets = %d RTs, want %d (3 per op)", seqRTs, 3*n)
	}
	if pipeRTs >= seqRTs {
		t.Errorf("pipelined %d RTs not fewer than sequential %d", pipeRTs, seqRTs)
	}
	// Depth 8 should approach 3 RTs per *window* of 8 ops, i.e. ~n/8*3
	// flushes plus stragglers; insist on at least a 4× reduction.
	if pipeRTs*4 > seqRTs {
		t.Errorf("pipelined %d RTs; expected ≤ 1/4 of sequential %d", pipeRTs, seqRTs)
	}
	if merged, verbs := pl.Pipe().Coalesced(); merged == 0 || verbs == 0 {
		t.Error("no flush carried verbs from multiple concurrent ops")
	}
}

// TestPipelineCoalescesSpecGets: the speculative 1-RT fast path stacks
// with pipelining — warm Gets spec-hit the shared leaf-address cache, and
// depth-d lanes coalesce their speculative leaf reads into shared
// flushes, so N warm Gets cost roughly N/d round trips.
func TestPipelineCoalescesSpecGets(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 2000)
	filter := NewFilterCache(1<<16, 9)
	keys := loadKeys(t, f, shared, filter, 512)

	main := f.NewClient()
	pl := NewPipeline(shared, main, Options{Filter: filter, LeafCache: testLAC(0)})
	warmOps := make([]*PipeOp, len(keys))
	for i, k := range keys {
		warmOps[i] = &PipeOp{Kind: PipeGet, Key: k}
	}
	pl.Run(warmOps, 8) // lanes learn leaf addresses into the shared LAC
	const n = 256
	pbefore := main.Stats()
	ops := make([]*PipeOp, n)
	for i := range ops {
		ops[i] = &PipeOp{Kind: PipeGet, Key: keys[i]}
	}
	pl.Run(ops, 8)
	for i, op := range ops {
		if op.Err != nil || !op.Found {
			t.Fatalf("pipelined spec get %d: found=%v err=%v", i, op.Found, op.Err)
		}
	}
	pipeRTs := main.Stats().Sub(pbefore).RoundTrips
	st := pl.Stats()
	if st.SpecHits < n*9/10 {
		t.Errorf("only %d/%d warm pipelined gets spec-hit", st.SpecHits, n)
	}
	// 256 one-RT ops at depth 8 should flush well under once per op;
	// allow generous slack for stragglers and refuted collisions.
	if pipeRTs > n {
		t.Errorf("pipelined spec gets = %d RTs for %d ops; speculative reads did not coalesce", pipeRTs, n)
	}
}

// TestPipelineDepthOneMatchesSequential: at depth 1 the pipeline
// degrades to exactly the sequential client's round-trip behavior.
func TestPipelineDepthOneMatchesSequential(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 2000)
	filter := NewFilterCache(1<<16, 9)
	keys := loadKeys(t, f, shared, filter, 256)

	seq := newTestClient(f, shared, Options{Filter: filter})
	for _, k := range keys {
		if _, ok, err := seq.Search(k); err != nil || !ok {
			t.Fatal("warmup", err)
		}
	}
	before := seq.Engine().C.Stats()
	for _, k := range keys {
		if _, ok, err := seq.Search(k); err != nil || !ok {
			t.Fatal(err)
		}
	}
	seqStats := seq.Engine().C.Stats().Sub(before)

	main := f.NewClient()
	pl := NewPipeline(shared, main, Options{Filter: filter, LeafCache: testLAC(0)})
	warmOps := make([]*PipeOp, len(keys))
	for i, k := range keys {
		warmOps[i] = &PipeOp{Kind: PipeGet, Key: k}
	}
	pl.Run(warmOps, 1)
	pbefore := main.Stats()
	ops := make([]*PipeOp, len(keys))
	for i, k := range keys {
		ops[i] = &PipeOp{Kind: PipeGet, Key: k}
	}
	pl.Run(ops, 1)
	pipeStats := main.Stats().Sub(pbefore)

	if seqStats.RoundTrips != pipeStats.RoundTrips {
		t.Errorf("depth-1 RTs = %d, sequential = %d", pipeStats.RoundTrips, seqStats.RoundTrips)
	}
	if seqStats.Verbs != pipeStats.Verbs || seqStats.BytesRead != pipeStats.BytesRead {
		t.Errorf("depth-1 stats %+v != sequential %+v", pipeStats, seqStats)
	}
}
