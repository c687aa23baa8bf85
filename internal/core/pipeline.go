// Pipelined execution: a Pipeline runs a window of operations with up to
// depth of them in flight, each on its own lane (a private core.Client
// over a fabric lane client). Lanes execute the ordinary resumable
// operation machinery from ops.go/locate.go unchanged — a lane goroutine
// blocked in a doorbell batch IS the suspended stage machine — while the
// fabric.Pipe coalesces the same-stage batches of all in-flight
// operations into shared doorbell flushes (one round trip each).
package core

import (
	"fmt"
	"sync"

	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
)

// PipeKind selects the verb of one pipelined operation.
type PipeKind uint8

// The pipelined operation kinds.
const (
	PipeGet PipeKind = iota
	PipePut
	PipeUpdate
	PipeDelete
	PipeScan
)

// PipeOp is one operation in a pipelined window: inputs filled by the
// caller, results filled by Pipeline.Run. Latency spans the operation's
// own in-flight window on its lane's virtual clock.
type PipeOp struct {
	Kind  PipeKind
	Key   []byte
	Value []byte // Put/Update payload
	Hi    []byte // Scan upper bound (nil = open end)
	Limit int    // Scan result cap

	// Results, valid after Run returns.
	Val     []byte    // Get: the value found
	Found   bool      // Get/Update/Delete: key existed; Put: key already existed
	KVs     []rart.KV // Scan results
	Err     error
	StartPs int64
	EndPs   int64
}

// Pipeline executes windows of operations over a fixed set of lanes.
// Lanes (and their directory caches, backoff streams and lock-owner IDs)
// persist across Run calls, so a long-lived session keeps its warmth. A
// Pipeline is single-caller: one Run at a time.
type Pipeline struct {
	shared Shared
	opts   Options
	pipe   *fabric.Pipe

	// laneMu guards the lane slices: Run appends lanes on demand while a
	// metrics scrape may be aggregating Stats from another goroutine.
	laneMu sync.Mutex
	lanefc []*fabric.Client
	lanes  []*Client
}

// NewPipeline mounts a pipelined executor flushing on the given main
// client. Every lane is built from opts, so the lanes share exactly the
// caches it names. Sharing the LAC also means a speculative read on one
// lane coalesces into the same doorbell flush as the other lanes'
// batches, so the 1-RT fast path stacks with depth>1 pipelining.
func NewPipeline(shared Shared, main *fabric.Client, opts Options) *Pipeline {
	return &Pipeline{shared: shared, opts: opts, pipe: fabric.NewPipe(main)}
}

// Pipe exposes the underlying coalescer (flush accounting for tests).
func (p *Pipeline) Pipe() *fabric.Pipe { return p.pipe }

func (p *Pipeline) ensureLanes(n int) {
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	for len(p.lanes) < n {
		fc := p.pipe.NewLane()
		p.lanefc = append(p.lanefc, fc)
		p.lanes = append(p.lanes, NewClient(p.shared, fc, p.opts))
	}
}

// snapshotLanes returns the current lane set; the returned slice is safe
// to iterate while Run grows the pipeline. A nil pipeline has no lanes, so
// the three aggregates below read zero for one not created yet.
func (p *Pipeline) snapshotLanes() []*Client {
	if p == nil {
		return nil
	}
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	return p.lanes[:len(p.lanes):len(p.lanes)]
}

// Run executes ops with up to depth in flight. Ops are dealt round-robin
// to lanes (lane i runs ops i, i+K, i+2K, …), which keeps the mapping —
// and with it every flush's composition — independent of goroutine
// scheduling. Run returns when every op has completed; per-op errors are
// reported in PipeOp.Err, not returned, so one failing op cannot hide
// the results of the window's others.
func (p *Pipeline) Run(ops []*PipeOp, depth int) {
	if len(ops) == 0 {
		return
	}
	k := depth
	if k < 1 {
		k = 1
	}
	if k > len(ops) {
		k = len(ops)
	}
	p.ensureLanes(k)
	p.pipe.BeginLanes(p.lanefc[:k])
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc, cl := p.lanefc[i], p.lanes[i]
			defer p.pipe.Done(fc)
			for j := i; j < len(ops); j += k {
				runPipeOp(cl, fc, ops[j])
			}
		}(i)
	}
	wg.Wait()
}

func runPipeOp(cl *Client, fc *fabric.Client, op *PipeOp) {
	op.StartPs = fc.Clock()
	switch op.Kind {
	case PipeGet:
		op.Val, op.Found, op.Err = cl.Search(op.Key)
	case PipePut:
		op.Found, op.Err = cl.Insert(op.Key, op.Value)
	case PipeUpdate:
		op.Found, op.Err = cl.Update(op.Key, op.Value)
	case PipeDelete:
		op.Found, op.Err = cl.Delete(op.Key)
	case PipeScan:
		op.KVs, op.Err = cl.Scan(op.Key, op.Hi, op.Limit)
	default:
		op.Err = fmt.Errorf("core: unknown pipelined op kind %d", op.Kind)
	}
	op.EndPs = fc.Clock()
}

// Stats aggregates the Sphinx-level counters of all lanes.
func (p *Pipeline) Stats() Stats { return sumOver(p.snapshotLanes(), (*Client).Stats) }

// EngineStats aggregates the node-engine recovery counters of all lanes.
func (p *Pipeline) EngineStats() rart.EngineStats {
	return sumOver(p.snapshotLanes(), func(c *Client) rart.EngineStats { return c.eng.Stats() })
}

// HashStats aggregates the inner-node-hash-table view counters of all
// lanes.
func (p *Pipeline) HashStats() racehash.Stats { return sumOver(p.snapshotLanes(), (*Client).HashStats) }
