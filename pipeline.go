package sphinx

import (
	"sphinx/internal/core"
)

// OpResult is one pipelined operation's outcome; fields are valid after
// Pipeline.Wait (or on return from MultiGet/MultiPut).
type OpResult struct {
	// Value is the value found (Get only).
	Value []byte
	// Found reports presence: the key existed (Get/Update/Delete) or was
	// overwritten rather than created (Put).
	Found bool
	// KVs holds Scan results.
	KVs []KV
	// Err is the operation's own error; operations fail independently.
	Err error
	// LatencyPs is the operation's virtual-time latency, measured across
	// its own in-flight window.
	LatencyPs int64
}

// Pipeline batches operations for asynchronous pipelined execution: up
// to depth operations are kept in flight at once, and verbs of
// same-stage operations coalesce into shared doorbell batches — e.g.
// eight concurrent Gets issue their eight SFC hash-entry reads as one
// batch, one round trip. Queue operations (each returns a result handle
// immediately), then call Wait to execute.
//
// On Sphinx clusters the session keeps one set of pipeline lanes alive
// across Wait calls, so their directory caches stay warm; all network
// accounting lands on the session's own counters. SMART and ART clusters
// keep their sequential clients (as the paper's baselines do): their
// pipelines execute the queue one operation at a time.
//
// A Pipeline is single-goroutine, like its Session. After Wait the
// pipeline is empty and can be reused.
type Pipeline struct {
	s       *Session
	depth   int
	ops     []*core.PipeOp
	results []*OpResult
}

// Pipeline starts an operation batch executing up to depth operations in
// flight (depth < 1 means 1, i.e. sequential behavior).
func (s *Session) Pipeline(depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{s: s, depth: depth}
}

func (p *Pipeline) add(op *core.PipeOp) *OpResult {
	r := &OpResult{}
	p.ops = append(p.ops, op)
	p.results = append(p.results, r)
	return r
}

// Get queues a point lookup.
func (p *Pipeline) Get(key []byte) *OpResult {
	return p.add(&core.PipeOp{Kind: core.PipeGet, Key: key})
}

// Put queues an upsert.
func (p *Pipeline) Put(key, value []byte) *OpResult {
	return p.add(&core.PipeOp{Kind: core.PipePut, Key: key, Value: value})
}

// Update queues an update-if-present.
func (p *Pipeline) Update(key, value []byte) *OpResult {
	return p.add(&core.PipeOp{Kind: core.PipeUpdate, Key: key, Value: value})
}

// Delete queues a removal.
func (p *Pipeline) Delete(key []byte) *OpResult {
	return p.add(&core.PipeOp{Kind: core.PipeDelete, Key: key})
}

// Scan queues a range scan over [lo, hi] (nil bounds are open), at most
// limit pairs when limit > 0.
func (p *Pipeline) Scan(lo, hi []byte, limit int) *OpResult {
	return p.add(&core.PipeOp{Kind: core.PipeScan, Key: lo, Hi: hi, Limit: limit})
}

// Wait executes every queued operation and fills the result handles.
// The returned error is the first per-operation error, as a convenience
// for callers that treat the batch as all-or-nothing; inspect each
// OpResult.Err to handle partial failure.
func (p *Pipeline) Wait() error {
	if len(p.ops) == 0 {
		return nil
	}
	if p.s.sphinx != nil {
		p.s.corePipeline().Run(p.ops, p.depth)
	} else {
		p.runSequential()
	}
	var first error
	for i, op := range p.ops {
		r := p.results[i]
		r.Value, r.Found, r.Err = op.Val, op.Found, op.Err
		r.LatencyPs = op.EndPs - op.StartPs
		if len(op.KVs) > 0 {
			r.KVs = op.KVs
		}
		if first == nil && op.Err != nil {
			first = op.Err
		}
	}
	p.ops, p.results = nil, nil
	return first
}

// runSequential executes the queue one op at a time on the session's
// own client — the baseline systems' execution model.
func (p *Pipeline) runSequential() {
	for _, op := range p.ops {
		op.StartPs = p.s.fc.Clock()
		switch op.Kind {
		case core.PipeGet:
			op.Val, op.Found, op.Err = p.s.Get(op.Key)
		case core.PipePut:
			op.Err = p.s.Put(op.Key, op.Value)
		case core.PipeUpdate:
			op.Found, op.Err = p.s.Update(op.Key, op.Value)
		case core.PipeDelete:
			op.Found, op.Err = p.s.Delete(op.Key)
		case core.PipeScan:
			op.KVs, op.Err = p.s.Scan(op.Key, op.Hi, op.Limit)
		}
		op.EndPs = p.s.fc.Clock()
	}
}

// corePipeline lazily creates the session's pipelined executor, flushing
// (and accounting) on the session's own fabric client; its lanes share the
// compute node's caches and the session's index distributions, as the
// session's own client does.
func (s *Session) corePipeline() *core.Pipeline {
	if pl := s.pl.Load(); pl != nil {
		return pl
	}
	// Lanes report their stage-attributed share of each flush into the
	// session metrics; the flush itself accounts on s.fc, whose observer is
	// already the same metrics set.
	pl := s.cn.cluster.cl.Pipeline(s.cn.node, s.fc, s.metrics, s.index)
	s.pl.Store(pl)
	return pl
}

// MultiGet looks up keys with up to depth in flight, coalescing the
// round trips of concurrent lookups. results[i] corresponds to keys[i].
func (s *Session) MultiGet(keys [][]byte, depth int) []OpResult {
	p := s.Pipeline(depth)
	handles := make([]*OpResult, len(keys))
	for i, k := range keys {
		handles[i] = p.Get(k)
	}
	p.Wait()
	return collect(handles)
}

// MultiPut upserts pairs with up to depth in flight. results[i].Found
// reports whether pairs[i] overwrote an existing key.
func (s *Session) MultiPut(pairs []KV, depth int) []OpResult {
	p := s.Pipeline(depth)
	handles := make([]*OpResult, len(pairs))
	for i, kv := range pairs {
		handles[i] = p.Put(kv.Key, kv.Value)
	}
	p.Wait()
	return collect(handles)
}

func collect(handles []*OpResult) []OpResult {
	out := make([]OpResult, len(handles))
	for i, h := range handles {
		out[i] = *h
	}
	return out
}
