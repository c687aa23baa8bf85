package core

import (
	"errors"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// TestDriveDecisionTable walks the operation driver's decision table
// (DESIGN.md §5.16) outcome by outcome and, for each, over every operation
// kind the outcome can happen to: what the retry budget was charged, which
// counters moved — Restarts always as the sum of its four causes — and the
// typed terminal error. Clients run with the leaf-address cache off so that
// every operation takes the driver. Timing is InstantConfig: batches are free,
// so virtual time passes only in backoff sleep (and the timeout penalty),
// which makes "charged to the budget" observable as "the clock moved".
func TestDriveDecisionTable(t *testing.T) {
	K, Z := []byte("kkkkkkkk"), []byte("zzzzzzzz")
	ops := map[string]func(c *Client) error{
		"search": func(c *Client) error { _, _, err := c.Search(K); return err },
		"insert": func(c *Client) error { _, err := c.Insert(K, []byte("v2")); return err },
		"update": func(c *Client) error { _, err := c.Update(K, []byte("v2")); return err },
		"delete": func(c *Client) error { _, err := c.Delete(K); return err },
		"scan":   func(c *Client) error { _, err := c.Scan(nil, nil, 0); return err },
	}
	all := []string{"search", "insert", "update", "delete", "scan"}
	keyed := all[:4]

	// cluster builds an index holding K and Z and returns a victim client
	// created under plan.
	cluster := func(t *testing.T, mns int, replicated bool, plan *fabric.FaultPlan) (*fabric.Fabric, *Client) {
		t.Helper()
		boot := newCluster
		if replicated {
			boot = newReplicatedCluster
		}
		f, shared := boot(t, mns, fabric.InstantConfig(), 1000)
		setup := newTestClient(f, shared, Options{})
		for _, k := range [][]byte{K, Z} {
			if _, err := setup.Insert(k, []byte("v1")); err != nil {
				t.Fatal(err)
			}
		}
		f.SetFaultPlan(plan)
		c := NewClient(shared, f.NewClient(), Options{Filter: testFilter(0)})
		c.eng.Cfg.Backoff = smallBudget.Backoff
		f.SetFaultPlan(nil)
		return f, c
	}
	// aimed faults the first verb of the operation, and no later one.
	aimed := func(fault error) func(t *testing.T) *Client {
		return func(t *testing.T) *Client {
			_, c := cluster(t, 1, false, nil)
			c.eng.C.FailAt(0, fault)
			return c
		}
	}
	killOwner := func(replicated bool) func(t *testing.T) *Client {
		return func(t *testing.T) *Client {
			f, c := cluster(t, 2, replicated, nil)
			f.KillNode(c.shared.Ring.OwnerKey(K))
			return c
		}
	}
	exhaustedRestarts := uint64(smallBudget.Backoff.Budget + 1)

	type want struct {
		free     bool   // no budget charged: no restart counted, no backoff slept
		restarts uint64 // Restarts delta when charged
		cause    func(Stats) uint64
		err      error // terminal error (errors.Is); nil: the operation completes
		wraps    error // what the terminal error also matches, if anything
		// Counters of the free re-routes and of the lost-node answer, by op.
		collisions, parents uint64
		failovers, degraded map[string]uint64
	}
	transient := func(s Stats) uint64 { return s.RestartsTransient }
	nodeDown := func(s Stats) uint64 { return s.RestartsNodeDown }
	rows := []struct {
		outcome string
		ops     []string
		build   func(t *testing.T) *Client
		want    want
	}{
		{"transient", all, aimed(fabric.ErrTransient),
			want{restarts: 1, cause: transient}},
		{"timeout", all, aimed(fabric.ErrTimeout),
			want{restarts: 1, cause: func(s Stats) uint64 { return s.RestartsTimeout }}},
		{"node-down window", all,
			// One instant wide: the backoff sleep the restart is charged
			// carries the next attempt past it.
			func(t *testing.T) *Client {
				_, c := cluster(t, 1, false, &fabric.FaultPlan{Seed: 1, Down: []fabric.DownWindow{{Node: 0, FromPs: 0, ToPs: 1}}})
				return c
			},
			want{restarts: 1, cause: nodeDown}},
		{"budget exhaustion", all,
			func(t *testing.T) *Client {
				plan := &fabric.FaultPlan{Seed: 1}
				_, c := cluster(t, 1, false, plan)
				plan.TransientPer64k = 1 << 16
				return c
			},
			want{restarts: exhaustedRestarts, cause: transient, err: ErrRetriesExhausted}},
		{"lost node, fault tolerance on", keyed, killOwner(true),
			want{free: true,
				failovers: map[string]uint64{"search": 1},
				degraded:  map[string]uint64{"insert": 1, "update": 1, "delete": 1}}},
		{"lost node, fault tolerance on", []string{"scan"}, killOwner(true),
			want{free: true, err: ErrReplicaSetUnavailable}},
		// Without the anchors nothing answers for a killed node, which never
		// comes back: every operation ends at once, a keyed one with the node
		// unavailable (and the fabric's verdict inside), a scan as it would
		// with fault tolerance on.
		{"lost node, fault tolerance off", keyed, killOwner(false),
			want{free: true, err: ErrNodeUnavailable, wraps: fabric.ErrNodeKilled}},
		{"lost node, fault tolerance off", []string{"scan"}, killOwner(false),
			want{free: true, err: ErrReplicaSetUnavailable}},
		{"prefix collision", []string{"search", "delete"},
			func(t *testing.T) *Client {
				_, c := cluster(t, 1, false, nil)
				plantImpostor(t, c, K[:4], K[4], wire.Slot{Leaf: true, Addr: leafAddrOf(t, c, Z)})
				return c
			},
			want{free: true, collisions: 1}},
		{"need parent, a parent above", []string{"insert"},
			func(t *testing.T) *Client {
				// Four siblings fill the Node4 at K[:6]; the filter learned
				// that prefix from the splits, so the insert of a fifth — K —
				// jumps to the full node and needs its parent to grow it.
				_, c := cluster(t, 1, false, nil)
				if _, err := c.Delete(K); err != nil {
					t.Fatal(err)
				}
				for _, b := range []byte("1234") {
					sib := append(append([]byte(nil), K[:6]...), b, 'z')
					if _, err := c.Insert(sib, []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				return c
			},
			want{free: true, parents: 1}},
	}
	for _, row := range rows {
		for _, op := range row.ops {
			t.Run(row.outcome+"/"+op, func(t *testing.T) {
				c := row.build(t)
				before, clock0 := c.Stats(), c.eng.C.Clock()
				err := ops[op](c)
				after, slept := c.Stats(), c.eng.C.Clock()-clock0
				w := row.want

				if !errors.Is(err, w.err) || (w.wraps != nil && !errors.Is(err, w.wraps)) {
					t.Fatalf("err = %v, want %v (wrapping %v)", err, w.err, w.wraps)
				}
				restarts := after.Restarts - before.Restarts
				if w.free {
					if restarts != 0 || slept != 0 {
						t.Errorf("a free outcome was charged: %d restarts, %d ps slept", restarts, slept)
					}
				} else {
					if restarts != w.restarts || slept == 0 {
						t.Errorf("%d restarts, %d ps slept; want %d restarts and the budget charged", restarts, slept, w.restarts)
					}
					if got := w.cause(after) - w.cause(before); got != restarts {
						t.Errorf("per-cause counter moved by %d, Restarts by %d", got, restarts)
					}
				}
				if sum := after.RestartsStructural + after.RestartsTransient + after.RestartsTimeout + after.RestartsNodeDown; sum != after.Restarts {
					t.Errorf("per-cause counters sum to %d, Restarts = %d", sum, after.Restarts)
				}
				for name, got := range map[string]uint64{
					"CollisionRetries": after.CollisionRetries - before.CollisionRetries - w.collisions,
					"ParentRetries":    after.ParentRetries - before.ParentRetries - w.parents,
					"Failovers":        after.Failovers - before.Failovers - w.failovers[op],
					"DegradedPuts":     after.DegradedPuts - before.DegradedPuts - w.degraded[op],
				} {
					if got != 0 {
						t.Errorf("%s is off by %d", name, int64(got))
					}
				}
				if op == "scan" && after.RootStarts != before.RootStarts {
					t.Error("a scan counted as a root-start locate")
				}
			})
		}
	}

	// The tree never needs the parent of the root, so the last row is driven
	// by hand: with no prefix above the start there is nothing to narrow to,
	// and the re-run is an ordinary structural restart.
	t.Run("need parent, no parent above", func(t *testing.T) {
		_, c := cluster(t, 1, false, nil)
		attempts := 0
		lost, err := c.drive("put", K, true, func(*rart.Node, int) (bool, error) {
			if attempts++; attempts == 1 {
				return false, rart.ErrNeedParent
			}
			return false, nil
		})
		st := c.Stats()
		if lost || err != nil || attempts != 2 {
			t.Fatalf("drive = %v, %v after %d attempts", lost, err, attempts)
		}
		if st.Restarts != 1 || st.RestartsStructural != 1 || st.ParentRetries != 0 || c.eng.C.Clock() == 0 {
			t.Errorf("Restarts %d, structural %d, ParentRetries %d, clock %d; want a charged structural restart",
				st.Restarts, st.RestartsStructural, st.ParentRetries, c.eng.C.Clock())
		}
	})
}
