package ycsb

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// OpKind is one YCSB operation type.
type OpKind int

// Operation types.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
)

// String names the op.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one generated operation. ScanLen is set for OpScan.
type Op struct {
	Kind    OpKind
	Key     []byte
	ScanLen int
}

// Workload is a YCSB operation mix. Percentages sum to 100.
type Workload struct {
	Name    string
	ReadP   int
	UpdateP int
	InsertP int
	ScanP   int
	// Latest selects the YCSB-D request distribution: reads target
	// recently inserted keys.
	Latest bool
}

// The paper's six workloads (§V-A).
var (
	WorkloadA = Workload{Name: "A", ReadP: 50, UpdateP: 50}
	WorkloadB = Workload{Name: "B", ReadP: 95, UpdateP: 5}
	WorkloadC = Workload{Name: "C", ReadP: 100}
	WorkloadD = Workload{Name: "D", ReadP: 95, UpdateP: 5, Latest: true}
	WorkloadE = Workload{Name: "E", ScanP: 95, InsertP: 5}
	Load      = Workload{Name: "LOAD", InsertP: 100}

	// All lists the workloads in the paper's Fig. 4 order.
	All = []Workload{Load, WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE}
)

// ByName returns the workload with the given name (case-sensitive).
func ByName(name string) (Workload, error) {
	for _, w := range All {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// MaxScanLen is the YCSB default maximum scan length (uniform 1..100).
const MaxScanLen = 100

// KeySpace is the shared state of one benchmark run: the loaded keys, a
// factory for novel keys, and the global insert cursor that the Latest
// distribution follows. Safe for concurrent use by many generators.
type KeySpace struct {
	base  [][]byte
	novel func(i int64) []byte
	// nextIns (count of keys inserted beyond base) is the one mutable,
	// cross-worker word of the key space: every inserting worker bumps it
	// while every other worker's chooseKey reads base/novel. Padding on
	// both sides keeps that write traffic off the cache lines holding the
	// read-only fields.
	_       [64]byte
	nextIns atomic.Int64
	_       [56]byte
}

// NewKeySpace wraps the loaded keys. novel produces the i-th key inserted
// during the run (beyond the loaded set); it may be nil for workloads
// without inserts.
func NewKeySpace(base [][]byte, novel func(i int64) []byte) *KeySpace {
	return &KeySpace{base: base, novel: novel}
}

// Total returns the current key count including run-time inserts.
func (ks *KeySpace) Total() int64 { return int64(len(ks.base)) + ks.nextIns.Load() }

// Key returns the idx-th key in insertion order.
func (ks *KeySpace) Key(idx int64) []byte {
	if idx < int64(len(ks.base)) {
		return ks.base[idx]
	}
	return ks.novel(idx - int64(len(ks.base)))
}

// TakeInsert reserves the next novel key.
func (ks *KeySpace) TakeInsert() []byte {
	i := ks.nextIns.Add(1) - 1
	return ks.novel(i)
}

// Generator produces one worker's deterministic operation stream.
// Not safe for concurrent use; create one per worker.
type Generator struct {
	w    Workload
	ks   *KeySpace
	zipf *Zipfian
	rng  *rand.Rand
}

// NewGenerator creates a worker generator. zipf must be built over the
// loaded key count (shared across workers); seed differentiates workers.
func NewGenerator(w Workload, ks *KeySpace, zipf *Zipfian, seed int64) *Generator {
	return &Generator{w: w, ks: ks, zipf: zipf, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Intn(100)
	switch {
	case p < g.w.ReadP:
		return Op{Kind: OpRead, Key: g.chooseKey()}
	case p < g.w.ReadP+g.w.UpdateP:
		return Op{Kind: OpUpdate, Key: g.chooseKey()}
	case p < g.w.ReadP+g.w.UpdateP+g.w.InsertP:
		return Op{Kind: OpInsert, Key: g.ks.TakeInsert()}
	default:
		return Op{Kind: OpScan, Key: g.chooseKey(), ScanLen: 1 + g.rng.Intn(MaxScanLen)}
	}
}

// NextN appends the next n operations to dst and returns it. Pipelined
// workers generate one issue window at a time, so distributions that
// depend on the loaded key count (YCSB-D's latest) stay at most one
// window stale.
func (g *Generator) NextN(dst []Op, n int) []Op {
	for i := 0; i < n; i++ {
		dst = append(dst, g.Next())
	}
	return dst
}

// chooseKey picks a request key per the workload's distribution.
func (g *Generator) chooseKey() []byte {
	if g.w.Latest {
		// YCSB latest: zipfian over recency — rank 0 is the newest key.
		total := g.ks.Total()
		off := int64(g.zipf.Draw(g.rng))
		idx := total - 1 - off
		if idx < 0 {
			idx = 0
		}
		return g.ks.Key(idx)
	}
	return g.ks.Key(int64(g.zipf.DrawScrambled(g.rng)))
}
