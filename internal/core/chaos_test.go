package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// The chaos suite drives mixed workloads through the fault-injection
// fabric (docs/failure-model.md) and checks the invariants the retry and
// recovery machinery owes the caller: no lost updates, no false absences,
// convergence to the fault-free result, and progress past crashed lock
// holders.

// chaosPlan exercises every probabilistic fault class at once: ~2% of
// batches fail transiently, ~1% lose their completion, ~1% complete late.
func chaosPlan(seed uint64) *fabric.FaultPlan {
	return &fabric.FaultPlan{
		Seed:            seed,
		TransientPer64k: 1311,
		TimeoutPer64k:   655,
		TimeoutPs:       2_000_000,
		DelayPer64k:     655,
		DelayPs:         5_000_000,
	}
}

// runChaosWorkload runs a fixed seeded single-client workload and returns
// the final index contents plus the client's fabric stats.
func runChaosWorkload(t *testing.T, plan *fabric.FaultPlan) ([]rart.KV, fabric.Stats) {
	t.Helper()
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	f.SetFaultPlan(plan)
	c := newSeededClient(f, shared, 7)
	rng := rand.New(rand.NewSource(99))
	oracle := map[string]string{}
	for step := 0; step < 1500; step++ {
		k := fmt.Sprintf("chaos-%03d", rng.Intn(150))
		switch rng.Intn(5) {
		case 0, 1:
			v := fmt.Sprintf("v%d", step)
			if _, err := c.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d insert %q: %v", step, k, err)
			}
			oracle[k] = v
		case 2:
			if _, err := c.Delete([]byte(k)); err != nil {
				t.Fatalf("step %d delete %q: %v", step, k, err)
			}
			delete(oracle, k)
		default:
			got, ok, err := c.Search([]byte(k))
			if err != nil {
				t.Fatalf("step %d search %q: %v", step, k, err)
			}
			want, wantOK := oracle[k]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("step %d: search %q = %q,%v want %q,%v", step, k, got, ok, want, wantOK)
			}
		}
	}
	// Read the final contents fault-free.
	f.SetFaultPlan(nil)
	verify := newTestClient(f, shared, Options{})
	kvs, err := verify.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(oracle) {
		t.Fatalf("final scan has %d keys, oracle has %d", len(kvs), len(oracle))
	}
	for _, kv := range kvs {
		if oracle[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("final %q = %q, oracle %q", kv.Key, kv.Value, oracle[string(kv.Key)])
		}
	}
	return kvs, c.Engine().C.Stats()
}

// TestChaosConvergence: the same workload converges to the same final
// contents with faults injected as without, and the same plan seed yields
// the same fault sequence.
func TestChaosConvergence(t *testing.T) {
	faulted, st := runChaosWorkload(t, chaosPlan(42))
	if st.Transients == 0 || st.Timeouts == 0 || st.Delays == 0 {
		t.Fatalf("workload did not exercise every fault class: %+v", st)
	}
	again, st2 := runChaosWorkload(t, chaosPlan(42))
	if st != st2 {
		t.Errorf("same seed, different fault sequence: %+v vs %+v", st, st2)
	}
	clean, cleanSt := runChaosWorkload(t, nil)
	if cleanSt.Transients != 0 || cleanSt.Timeouts != 0 || cleanSt.Delays != 0 {
		t.Errorf("fault-free run has fault stats: %+v", cleanSt)
	}
	for i, runKVs := range [][]rart.KV{again, clean} {
		if len(runKVs) != len(faulted) {
			t.Fatalf("run %d: %d keys vs %d", i, len(runKVs), len(faulted))
		}
		for j := range runKVs {
			if !bytes.Equal(runKVs[j].Key, faulted[j].Key) || !bytes.Equal(runKVs[j].Value, faulted[j].Value) {
				t.Fatalf("run %d diverges at %q", i, runKVs[j].Key)
			}
		}
	}
}

// TestChaosConcurrentMixedFaults: concurrent workers under every
// probabilistic fault class at once. Each worker owns a key range (its
// updates must never be lost) and all workers read a shared preloaded
// range (those keys must never go absent).
func TestChaosConcurrentMixedFaults(t *testing.T) {
	f, shared := newCluster(t, 3, fabric.DefaultConfig(), 4000)
	preload := newTestClient(f, shared, Options{})
	const sharedKeys = 40
	for i := 0; i < sharedKeys; i++ {
		if _, err := preload.Insert([]byte(fmt.Sprintf("s-%03d", i)), []byte("stable")); err != nil {
			t.Fatal(err)
		}
	}
	f.SetFaultPlan(chaosPlan(7))

	const workers = 6
	oracles := make([]map[string]string, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newSeededClient(f, shared, uint64(w))
			rng := rand.New(rand.NewSource(int64(w)))
			oracle := map[string]string{}
			oracles[w] = oracle
			key := func(i int) string { return fmt.Sprintf("%c-key-%03d", 'a'+w, i) }
			for step := 0; step < 250; step++ {
				k := key(rng.Intn(40))
				switch rng.Intn(6) {
				case 0, 1:
					v := fmt.Sprintf("w%d.%d", w, step)
					if _, err := c.Insert([]byte(k), []byte(v)); err != nil {
						errs <- fmt.Errorf("w%d insert: %w", w, err)
						return
					}
					oracle[k] = v
				case 2:
					if _, err := c.Delete([]byte(k)); err != nil {
						errs <- fmt.Errorf("w%d delete: %w", w, err)
						return
					}
					delete(oracle, k)
				case 3:
					// Shared read-only keys must never look absent.
					sk := fmt.Sprintf("s-%03d", rng.Intn(sharedKeys))
					v, ok, err := c.Search([]byte(sk))
					if err != nil || !ok || string(v) != "stable" {
						errs <- fmt.Errorf("w%d: shared key %q = %q,%v,%v", w, sk, v, ok, err)
						return
					}
				case 4:
					// A scan over the worker's own range sees exactly its
					// own writes.
					kvs, err := c.Scan([]byte(key(0)), []byte(key(999)), 0)
					if err != nil {
						errs <- fmt.Errorf("w%d scan: %w", w, err)
						return
					}
					seen := map[string]string{}
					for _, kv := range kvs {
						seen[string(kv.Key)] = string(kv.Value)
					}
					for k := range seen {
						if _, ok := oracle[k]; !ok {
							errs <- fmt.Errorf("w%d scan step %d: ghost key %q=%q (oracle %d, scan %d)", w, step, k, seen[k], len(oracle), len(kvs))
							return
						}
					}
					for k := range oracle {
						if _, ok := seen[k]; !ok {
							errs <- fmt.Errorf("w%d scan step %d: missing key %q (oracle %d, scan %d)", w, step, k, len(oracle), len(kvs))
							return
						}
					}
					if len(kvs) != len(seen) {
						errs <- fmt.Errorf("w%d scan step %d: %d entries but %d distinct keys", w, step, len(kvs), len(seen))
						return
					}
				default:
					v, ok, err := c.Search([]byte(k))
					if err != nil {
						errs <- fmt.Errorf("w%d search: %w", w, err)
						return
					}
					want, wantOK := oracle[k]
					if ok != wantOK || (ok && string(v) != want) {
						errs <- fmt.Errorf("w%d: %q = %q,%v want %q,%v", w, k, v, ok, want, wantOK)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	f.SetFaultPlan(nil)
	verify := newTestClient(f, shared, Options{})
	for w := 0; w < workers; w++ {
		for k, want := range oracles[w] {
			v, ok, err := verify.Search([]byte(k))
			if err != nil || !ok || string(v) != want {
				t.Fatalf("lost update: %q = %q,%v,%v want %q", k, v, ok, err, want)
			}
		}
	}
	for i := 0; i < sharedKeys; i++ {
		k := fmt.Sprintf("s-%03d", i)
		if _, ok, err := verify.Search([]byte(k)); err != nil || !ok {
			t.Fatalf("shared key %q absent after chaos: %v", k, err)
		}
	}
}

// TestChaosNodeDown: operations issued while a memory node is down retry
// through the backoff schedule and complete once the window passes.
func TestChaosNodeDown(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	nodeIDs := shared.Ring.Nodes()
	f.SetFaultPlan(&fabric.FaultPlan{
		Seed: 3,
		Down: []fabric.DownWindow{{Node: nodeIDs[0], FromPs: 0, ToPs: 300_000_000}},
	})
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	rejects := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newSeededClient(f, shared, uint64(w))
			for i := 0; i < 60; i++ {
				k := []byte(fmt.Sprintf("down-%d-%03d", w, i))
				if _, err := c.Insert(k, []byte("v")); err != nil {
					errs <- fmt.Errorf("w%d insert %q: %w", w, k, err)
					return
				}
			}
			rejects[w] = c.Engine().C.Stats().NodeDownRejects
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range rejects {
		total += r
	}
	if total == 0 {
		t.Fatal("no operation ever hit the down window; test exercises nothing")
	}
	f.SetFaultPlan(nil)
	verify := newTestClient(f, shared, Options{})
	for w := 0; w < workers; w++ {
		for i := 0; i < 60; i++ {
			k := []byte(fmt.Sprintf("down-%d-%03d", w, i))
			if _, ok, err := verify.Search(k); err != nil || !ok {
				t.Fatalf("%q lost across the down window: %v", k, err)
			}
		}
	}
}

// TestChaosLockSteal: a client that crashes while holding an inner-node
// lease must not block others — a waiter that watches the same lease for a
// full lease duration steals it and proceeds.
func TestChaosLockSteal(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	a := newTestClient(f, shared, Options{})
	for _, k := range []string{"alpha", "beta"} {
		if _, err := a.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A takes the root lease and dies without releasing it.
	root, err := a.eng.ReadNode(shared.Root, wire.Node256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.eng.Lock(root.Addr, root.Hdr.Type, root.LeaseWord); err != nil {
		t.Fatal(err)
	}
	a.eng.C.FailAt(0, fabric.ErrClientCrashed)

	// B's insert of a new top-level edge needs the root lease; it must
	// steal the dead client's lock and complete.
	b := newTestClient(f, shared, Options{})
	if _, err := b.Insert([]byte("zeta"), []byte("new")); err != nil {
		t.Fatalf("insert blocked by dead lock holder: %v", err)
	}
	if steals := b.Engine().Stats().LockSteals; steals == 0 {
		t.Error("LockSteals = 0; the stuck lease was never stolen")
	}
	for _, k := range []string{"alpha", "beta", "zeta"} {
		if _, ok, err := b.Search([]byte(k)); err != nil || !ok {
			t.Errorf("%q missing after steal: %v", k, err)
		}
	}
}

// TestChaosLeafLockBreak: a leaf whose holder crashed between the lock CAS
// and the image WRITE still carries the old checksum-valid image; waiters
// break the lock after a full lease of watching.
func TestChaosLeafLockBreak(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig(), 1000)
	a := newTestClient(f, shared, Options{})
	key, val := []byte("victim"), []byte("old-value")
	if _, err := a.Insert(key, val); err != nil {
		t.Fatal(err)
	}
	root, err := a.eng.ReadNode(shared.Root, wire.Node256)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := a.eng.SearchFrom(root, key, rart.NopHooks{})
	if err != nil || leaf == nil {
		t.Fatalf("leaf lookup: %v", err)
	}
	idle := wire.LeafHeader{
		Status: wire.StatusIdle, Units: leaf.Units,
		KeyLen: uint16(len(key)), ValLen: uint32(len(val)),
	}.Encode()
	old, err := a.eng.C.CompareSwap(leaf.Addr, idle, wire.WithStatus(idle, wire.StatusLocked))
	if err != nil || old != idle {
		t.Fatalf("could not wedge leaf lock: old=%#x err=%v", old, err)
	}
	a.eng.C.FailAt(0, fabric.ErrClientCrashed)

	b := newTestClient(f, shared, Options{})
	got, ok, err := b.Search(key)
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("search under stuck leaf lock = %q,%v,%v", got, ok, err)
	}
	if _, err := b.Update(key, []byte("new-value")); err != nil {
		t.Fatalf("update blocked by stuck leaf lock: %v", err)
	}
	if breaks := b.Engine().Stats().LeafLockBreaks; breaks == 0 {
		t.Error("LeafLockBreaks = 0; the stuck leaf lock was never broken")
	}
	if got, ok, _ := b.Search(key); !ok || !bytes.Equal(got, []byte("new-value")) {
		t.Errorf("after break: %q = %q,%v", key, got, ok)
	}
}

// TestChaosCrashMidWrite: a client killed by an aimed crash partway
// through its verb stream (wherever that lands it — possibly holding
// locks) must not stop a later client from writing the same key space.
func TestChaosCrashMidWrite(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	a := newTestClient(f, shared, Options{})
	a.eng.C.FailAt(600, fabric.ErrClientCrashed)
	crashed := false
	for i := 0; i < 400 && !crashed; i++ {
		k := []byte(fmt.Sprintf("cr-%03d", i))
		if _, err := a.Insert(k, []byte("from-a")); err != nil {
			if !errors.Is(err, fabric.ErrClientCrashed) {
				t.Fatalf("insert %q: %v", k, err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("workload finished before the planned crash point")
	}
	b := newTestClient(f, shared, Options{})
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("cr-%03d", i))
		if _, err := b.Insert(k, []byte("from-b")); err != nil {
			t.Fatalf("survivor insert %q: %v", k, err)
		}
	}
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("cr-%03d", i))
		v, ok, err := b.Search(k)
		if err != nil || !ok || string(v) != "from-b" {
			t.Fatalf("%q = %q,%v,%v after recovery", k, v, ok, err)
		}
	}
}

// TestChaosPipelinedConvergence drives the mixed-fault oracle workload
// through pipelined windows: every probabilistic fault class fires under
// coalesced doorbell flushes, each fault must stay isolated to the
// in-flight operation it hit (the lane's retry machinery absorbs it, so
// PipeOp.Err stays nil), and the index must converge to the oracle.
// Windows use distinct keys so concurrent lanes never race on one key and
// the oracle stays well-defined.
func TestChaosPipelinedConvergence(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	f.SetFaultPlan(chaosPlan(23))
	main := f.NewClient()
	pl := NewPipeline(shared, main, withCaches(shared, Options{}, 11))

	const depth, perWindow, rounds = 6, 24, 50
	rng := rand.New(rand.NewSource(17))
	oracle := map[string]string{}
	ops := make([]*PipeOp, 0, perWindow)
	for round := 0; round < rounds; round++ {
		ops = ops[:0]
		used := map[string]bool{}
		for len(ops) < perWindow {
			k := fmt.Sprintf("pchaos-%03d", rng.Intn(240))
			if used[k] {
				continue
			}
			used[k] = true
			op := &PipeOp{Key: []byte(k)}
			switch rng.Intn(5) {
			case 0, 1:
				op.Kind = PipePut
				op.Value = []byte(fmt.Sprintf("r%d.%d", round, len(ops)))
			case 2:
				op.Kind = PipeDelete
			default:
				op.Kind = PipeGet
			}
			ops = append(ops, op)
		}
		pl.Run(ops, depth)
		for _, op := range ops {
			k := string(op.Key)
			if op.Err != nil {
				t.Fatalf("round %d: %q err = %v (faults must be absorbed per lane)", round, k, op.Err)
			}
			want, existed := oracle[k]
			switch op.Kind {
			case PipePut:
				// Found is not checked: a faulted-and-retried insert can
				// observe its own first attempt and report the key present.
				oracle[k] = string(op.Value)
			case PipeDelete:
				delete(oracle, k)
			case PipeGet:
				if op.Found != existed || (existed && string(op.Val) != want) {
					t.Fatalf("round %d: get %q = %q,%v want %q,%v", round, k, op.Val, op.Found, want, existed)
				}
			}
		}
	}

	st := main.Stats()
	if st.Transients == 0 || st.Timeouts == 0 || st.Delays == 0 {
		t.Fatalf("pipelined workload did not exercise every fault class: %+v", st)
	}
	if flushes, verbs := pl.Pipe().Coalesced(); flushes == 0 || verbs == 0 {
		t.Fatal("no coalesced flushes; the windows ran effectively sequentially")
	}

	// The final contents, read fault-free, must match the oracle exactly.
	f.SetFaultPlan(nil)
	verify := newTestClient(f, shared, Options{})
	kvs, err := verify.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(oracle) {
		t.Fatalf("final scan has %d keys, oracle has %d", len(kvs), len(oracle))
	}
	for _, kv := range kvs {
		if oracle[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("final %q = %q, oracle %q", kv.Key, kv.Value, oracle[string(kv.Key)])
		}
	}
}

// TestChaosPipelinedNodeDown: a pipelined window issued against a downed
// memory node blocks in lane backoff like a sequential client would, then
// completes once the window passes — no op may fail or be dropped.
func TestChaosPipelinedNodeDown(t *testing.T) {
	f, shared := newCluster(t, 2, fabric.DefaultConfig(), 2000)
	nodeIDs := shared.Ring.Nodes()
	f.SetFaultPlan(&fabric.FaultPlan{
		Seed: 9,
		Down: []fabric.DownWindow{{Node: nodeIDs[0], FromPs: 0, ToPs: 300_000_000}},
	})
	main := f.NewClient()
	pl := NewPipeline(shared, main, withCaches(shared, Options{}, 3))
	const n = 48
	ops := make([]*PipeOp, n)
	for i := range ops {
		ops[i] = &PipeOp{
			Kind:  PipePut,
			Key:   []byte(fmt.Sprintf("pdown-%03d", i)),
			Value: []byte("v"),
		}
	}
	pl.Run(ops, 8)
	for _, op := range ops {
		if op.Err != nil {
			t.Fatalf("put %q: %v", op.Key, op.Err)
		}
	}
	if main.Stats().NodeDownRejects == 0 {
		t.Fatal("no operation ever hit the down window; test exercises nothing")
	}
	f.SetFaultPlan(nil)
	verify := newTestClient(f, shared, Options{})
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("pdown-%03d", i))
		if _, ok, err := verify.Search(k); err != nil || !ok {
			t.Fatalf("%q lost across the down window: %v", k, err)
		}
	}
}
