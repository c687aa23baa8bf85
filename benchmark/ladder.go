package main

import (
	"fmt"

	"sphinx"
	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
)

// The ladder replays a workload one rung below the public API: the same keys
// and operations, issued to core.Client over a cluster the benchmark
// assembles itself exactly as sphinx.NewCluster/NewSession would — but with
// no obs.Metrics, tail sampler or trace recorder attached. What a Session
// call costs above a core.Client call is that wrapper.

// batchLog is the benchmark's own fabric.BatchObserver on one core-rung
// client: per-stage batch counts for the whole replay, and the first events
// as child spans of the calls that caused them.
type batchLog struct {
	batches [fabric.NumStages]uint64
	keep    int
	events  []fabric.BatchEvent
}

var _ fabric.BatchObserver = (*batchLog)(nil)

func (l *batchLog) ObserveBatch(ev fabric.BatchEvent) {
	l.batches[ev.Stage]++
	if len(l.events) < l.keep {
		ev.Err = nil
		l.events = append(l.events, ev)
	}
}

type coreTarget struct {
	c    *core.Client
	fc   *fabric.Client
	log  *batchLog
	last []rart.KV
}

func (t *coreTarget) Get(key []byte) ([]byte, bool, error)   { return t.c.Search(key) }
func (t *coreTarget) Update(key, value []byte) (bool, error) { return t.c.Update(key, value) }
func (t *coreTarget) Put(key, value []byte) error {
	_, err := t.c.Insert(key, value)
	return err
}
func (t *coreTarget) Scan(lo []byte, limit int) (err error) {
	t.last, err = t.c.Scan(lo, nil, limit)
	return err
}
func (t *coreTarget) scanOK(lo []byte, limit, valueSize int) bool {
	kvs := make([]sphinx.KV, len(t.last))
	for i, kv := range t.last {
		kvs[i] = sphinx.KV{Key: kv.Key, Value: kv.Value}
	}
	return checkScan(kvs, lo, limit, valueSize)
}
func (t *coreTarget) counters() net {
	st := t.fc.Stats()
	return net{t.fc.Clock(), st.RoundTrips, st.Verbs, st.BytesRead + st.BytesWrite}
}

type coreStack struct {
	f       *fabric.Fabric
	shared  core.Shared
	filters []*core.FilterCache
	ts      []*coreTarget
}

// setupCore builds the workload on the core rung. Every size and seed
// matches what sphinx.NewCluster, NewComputeNode and NewSession derive from
// the same Config, so the two rungs hold identical indexes and caches.
func setupCore(sp *spec, seed int64, z sizes) (*env, *coreStack, error) {
	e := buildInputs(sp, seed, z)
	cfg := sp.config(len(e.ks.keys), seed)
	f := fabric.New(fabric.DefaultConfig())
	nodes := make([]mem.NodeID, cfg.MemoryNodes)
	for i := range nodes {
		nodes[i] = f.AddNode(cfg.MemoryPerNode)
	}
	ring, err := consistenthash.NewChecked(nodes, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: ring: %w", err)
	}
	var sh core.Shared
	if cfg.Replication > 0 {
		sh, err = core.BootstrapReplicated(f, ring, cfg.ExpectedKeys, cfg.Replication)
	} else {
		sh, err = core.Bootstrap(f, ring, cfg.ExpectedKeys)
	}
	if err == nil && cfg.HotReplicaFactor > 0 {
		err = core.BootstrapHot(f, &sh, 4096, cfg.HotReplicaFactor)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: bootstrap: %w", err)
	}
	st := &coreStack{f: f, shared: sh}
	opts := make([]core.Options, sp.cns)
	for id := range opts {
		cnSeed := uint64(seed + int64(id))
		opts[id] = core.Options{
			Filter:    core.NewFilterCacheBytes(cfg.CacheBytes, cnSeed|1),
			LeafCache: core.NewLeafCacheBytes(cfg.LeafCacheBytes, cnSeed),
		}
		if sh.Hot != nil {
			opts[id].Hot = core.NewHotSet(cfg.HotSetBytes, cnSeed, sh.Hot.R)
		}
		st.filters = append(st.filters, opts[id].Filter)
	}
	e.targets = make([][]target, e.drivers)
	for d := range e.targets {
		for i := 0; i < sp.sessions; i++ {
			fc := f.NewClient()
			log := new(batchLog) // keeps no events until the replay arms it
			fc.SetObserver(log)
			t := &coreTarget{c: core.NewClient(sh, fc, opts[d%sp.cns]), fc: fc, log: log}
			st.ts = append(st.ts, t)
			e.targets[d] = append(e.targets[d], t)
		}
	}
	e.populate()
	return e, st, nil
}
