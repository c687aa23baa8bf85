package main

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// Unit drivers call one layer's public entry points directly, on inputs
// derived from the workload's own keys, and report wall ns per call. They
// touch only the entry points named in the README; a refactor that moves one
// needs its own benchmark issue first.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

type unitInputs struct {
	keys      [][]byte
	valueSize int
	cfgBytes  uint64   // the workload's filter-cache budget
	rts       []uint64 // per-op round-trip counts sampled from the traced phase
	calls     int      // calls per cheap driver; dearer ones take a share
	drivers   int
}

// timed runs f once and returns ns and heap allocations per call.
func timed(calls int, f func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// timedParallel runs f(driver, n) on every driver at once and returns
// driver-ns per call: what one driver pays with the others contending.
func timedParallel(drivers, calls int, f func(d, n int)) float64 {
	per := calls / drivers
	var wg sync.WaitGroup
	t0 := time.Now()
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f(d, per)
		}(d)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(per)
}

const unitRegion = 64 << 20

// unitAddr maps a key to a 128-byte-aligned address past the allocator
// header, spread over nodes by the key's hash.
func unitAddr(key []byte, nodes int) mem.Addr {
	h := hashKey(key)
	lines := uint64(unitRegion-8192) / 128
	return mem.NewAddr(mem.NodeID(h%uint64(nodes)), 4096+(h>>8)%lines*128)
}

func runUnits(in unitInputs) map[string]float64 {
	out := map[string]float64{}
	keys := in.keys
	nk := len(keys)

	// fabric: TimingRDMA. One driver alone gives the floor a batch costs
	// (what fabric.est_ns_per_op is built from); batch1 is also timed with
	// every driver hammering its own client at once, the worst case for the
	// per-NIC timeline lock and the fabric's node table lock. The workload
	// sits between the two.
	{
		f := fabric.New(fabric.DefaultConfig())
		for i := 0; i < 3; i++ {
			f.AddNode(unitRegion)
		}
		clients := make([]*fabric.Client, in.drivers)
		for d := range clients {
			clients[d] = f.NewClient()
		}
		fab := func(name string, drivers int, call func(c *fabric.Client, a0, a1, a2 mem.Addr, buf []byte, ops []fabric.Op)) {
			f.ResetTimelines()
			out[name] = timedParallel(drivers, in.calls, func(d, n int) {
				c := clients[d]
				buf := make([]byte, 3*128)
				ops := make([]fabric.Op, 3)
				for i := 0; i < n; i++ {
					j := (i*drivers + d) % nk
					call(c, unitAddr(keys[j], 3), unitAddr(keys[(j+1)%nk], 3), unitAddr(keys[(j+2)%nk], 3), buf, ops)
				}
			})
		}
		read1 := func(c *fabric.Client, a0, _, _ mem.Addr, buf []byte, ops []fabric.Op) {
			ops[0] = fabric.Op{Kind: fabric.Read, Addr: a0, Data: buf[:64]}
			_ = c.Batch(ops[:1]) // fault-free fabric: Batch cannot fail
		}
		fab("fabric.batch1_read64_ns", 1, read1)
		fab("fabric.batch1_read64_contended_ns", in.drivers, read1)
		fab("fabric.batch3_read_ns", 1, func(c *fabric.Client, a0, a1, a2 mem.Addr, buf []byte, ops []fabric.Op) {
			ops[0] = fabric.Op{Kind: fabric.Read, Addr: a0, Data: buf[:64]}
			ops[1] = fabric.Op{Kind: fabric.Read, Addr: a1, Data: buf[128:192]}
			ops[2] = fabric.Op{Kind: fabric.Read, Addr: a2, Data: buf[256:320]}
			_ = c.Batch(ops)
		})
		fab("fabric.cas_ns", 1, func(c *fabric.Client, a0, _, _ mem.Addr, _ []byte, _ []fabric.Op) {
			old, _ := c.CompareSwap(a0, 0, 0)
			sink += old
		})
		fab("fabric.write128_ns", 1, func(c *fabric.Client, a0, _, _ mem.Addr, buf []byte, _ []fabric.Op) {
			_ = c.Write(a0, buf[:128])
		})
	}

	// mem: the region under the fabric, no network model.
	{
		r := mem.NewRegion(0, unitRegion)
		buf := make([]byte, 64)
		out["mem.region_read64_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				r.Read(unitAddr(keys[i%nk], 1).Offset(), buf)
			}
		})
		out["mem.region_cas_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				sink += r.CompareSwap(unitAddr(keys[i%nk], 1).Offset(), 0, 0)
			}
		})
	}

	// wire, consistenthash: pure functions of the keys.
	{
		out["wire.prefixhash_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				sink += wire.PrefixHash42(keys[i%nk])
			}
		})
		val := make([]byte, in.valueSize)
		fillValue(val, 1, 0, 1)
		out["wire.leaf_encode_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				sink += uint64(len(wire.EncodeLeaf(wire.StatusIdle, keys[i%nk], val)))
			}
		})
		leaves := make([][]byte, 1024)
		for i := range leaves {
			leaves[i] = wire.EncodeLeaf(wire.StatusIdle, keys[i%nk], val)
		}
		out["wire.leaf_decode_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				_, v, _, ok := wire.DecodeLeaf(leaves[i%len(leaves)])
				if ok {
					sink += uint64(len(v))
				}
			}
		})
		ring := consistenthash.New([]mem.NodeID{0, 1, 2}, 0)
		out["consistenthash.owner_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				sink += uint64(ring.OwnerKey(keys[i%nk]))
			}
		})
	}

	// cuckoo: the filter at the workload's budget, fed the filter hash of
	// every prefix of the workload's keys, as the SFC is.
	{
		hashes := make([]uint64, 0, in.calls)
		for i := 0; len(hashes) < in.calls; i++ {
			k := keys[i%nk]
			for l := 1; l <= len(k) && len(hashes) < in.calls; l++ {
				hashes = append(hashes, core.PrefixFilterHash(k[:l]))
			}
		}
		f := cuckoo.NewBytes(in.cfgBytes, 1)
		out["cuckoo.insert_ns"], _ = timed(len(hashes), func() {
			for _, h := range hashes {
				if f.Insert(h) {
					sink++
				}
			}
		})
		out["cuckoo.contains_ns"], _ = timed(len(hashes), func() {
			for _, h := range hashes {
				if f.Contains(h) {
					sink++
				}
			}
		})
	}

	// racehash: one bootstrapped table, entries keyed by the workload's keys
	// and pointing at header words that carry their placement hash (a
	// segment split re-derives placement from them).
	{
		n := in.calls / 4
		if n > nk {
			n = nk
		}
		f := fabric.New(fabric.DefaultConfig())
		node := f.AddNode(unitRegion)
		boot := mem.NewAllocator(f.Regions(), 0)
		table, err := racehash.Bootstrap(f.Region(node), boot, node, n)
		arena, err2 := boot.Alloc(node, mem.ClassInner, uint64(n)*8)
		if err == nil && err2 == nil {
			c := f.NewClient()
			alloc := mem.NewAllocator(c, 0)
			view := racehash.NewView(table, c)
			hs := make([]uint64, n)
			es := make([]wire.HashEntry, n)
			for i := 0; i < n; i++ {
				hs[i] = racehash.PlacementHash(keys[i])
				at := arena.Add(uint64(i) * 8)
				f.Region(node).WriteUint64(at.Offset(), wire.NodeHeader{Type: wire.Node4, Depth: uint16(len(keys[i])), PrefixHash: hs[i]}.Encode())
				es[i] = wire.HashEntry{Valid: true, FP: wire.FP12(keys[i]), Type: wire.Node4, Addr: at}
			}
			var failed int
			out["racehash.insert_ns"], _ = timed(n, func() {
				for i := 0; i < n; i++ {
					if view.Insert(hs[i], es[i], alloc) != nil {
						failed++
					}
				}
			})
			var cands []racehash.Candidate
			out["racehash.lookup_ns"], _ = timed(n, func() {
				for i := 0; i < n; i++ {
					cands, err = view.LookupAppend(cands[:0], hs[i], es[i].FP)
					if err != nil || len(cands) == 0 {
						failed++
					}
				}
			})
			if failed > 0 {
				out["racehash.insert_ns"], out["racehash.lookup_ns"] = 0, 0
			}
		}
	}

	// rart: the un-accelerated descent — read the root, walk down.
	{
		n := in.calls / 8
		if n > nk {
			n = nk
		}
		f := fabric.New(fabric.DefaultConfig())
		nodes := []mem.NodeID{f.AddNode(unitRegion), f.AddNode(unitRegion), f.AddNode(unitRegion)}
		ring := consistenthash.New(nodes, 0)
		home := ring.OwnerKey(nil)
		root, err := rart.BootstrapRoot(f.Region(home), mem.NewAllocator(f.Regions(), 0), home)
		if err == nil {
			c := f.NewClient()
			eng := rart.NewEngine(c, mem.NewAllocator(c, 0), ring, rart.Config{})
			val := make([]byte, in.valueSize)
			fillValue(val, 1, 0, 1)
			var failed int
			out["rart.put_root_ns"], _ = timed(n, func() {
				for i := 0; i < n; i++ {
					err := rart.ErrRestart
					for try := 0; try < 8 && (errors.Is(err, rart.ErrRestart) || errors.Is(err, rart.ErrNeedParent)); try++ {
						var rn *rart.Node
						if rn, err = eng.ReadNode(root, wire.Node256); err == nil {
							_, err = eng.PutFrom(rn, keys[i], val, rart.PutUpsert, rart.NopHooks{})
						}
					}
					if err != nil {
						failed++
					}
				}
			})
			out["rart.search_root_ns"], _ = timed(n, func() {
				for i := 0; i < n; i++ {
					rn, err := eng.ReadNode(root, wire.Node256)
					if err == nil {
						var leaf *rart.Leaf
						if leaf, err = eng.SearchFrom(rn, keys[i], rart.NopHooks{}); err == nil && leaf != nil {
							sink += uint64(len(leaf.Value))
							continue
						}
					}
					failed++
				}
			})
			if failed > 0 {
				out["rart.put_root_ns"], out["rart.search_root_ns"] = 0, 0
			}
		}
	}

	// obs: the exact per-op sequence Session wraps around every call, fed
	// the round-trip mix the traced phase saw.
	{
		m := obs.NewMetrics()
		rec := obs.NewRecorder()
		tail := obs.NewTailSampler(0, 0)
		tee := obs.Tee{A: m, B: rec}
		const rtPs = 2_163_000
		clock := int64(0)
		rts := in.rts
		if len(rts) == 0 {
			rts = []uint64{1}
		}
		out["obs.observe_op_ns"], out["obs.allocs_per_op"] = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				rt := rts[i%len(rts)]
				rec.BeginReuse("get", clock)
				start := clock
				clock += int64(rt) * rtPs
				m.ObserveOp(obs.OpGet, clock-start, rt)
				rec.End(clock)
				tail.Offer(obs.OpGet, rec.Trace())
			}
		})
		ev := fabric.BatchEvent{Stage: fabric.StageLeafRead, Verbs: 1, Bytes: 128, RoundTrips: 1}
		out["obs.observe_batch_ns"], _ = timed(in.calls, func() {
			for i := 0; i < in.calls; i++ {
				if i%3 == 0 { // a fresh op every third batch keeps the trace bounded
					rec.BeginReuse("get", clock)
				}
				ev.StartPs, ev.EndPs = clock, clock+rtPs
				clock += rtPs
				tee.ObserveBatch(ev)
			}
		})
	}
	return out
}
