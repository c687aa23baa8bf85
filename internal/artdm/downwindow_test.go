package artdm

import (
	"errors"
	"fmt"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
)

// TestBaselinesRideOutDownWindow: a memory node inside a down window comes
// back, so an operation that meets one backs off and goes again until the
// window has passed — the policy fabric.ErrNodeDown documents and Sphinx
// follows — instead of failing on the first rejected batch. A KILLED node
// never comes back, and still ends the operation at once.
func TestBaselinesRideOutDownWindow(t *testing.T) {
	f, shared := newCluster(t, 1, fabric.DefaultConfig())
	key := func(i int) []byte { return []byte(fmt.Sprintf("window-%03d", i)) }
	loader := newTestClient(f, shared)
	for i := 0; i < 64; i++ {
		if _, err := loader.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	node := shared.Ring.Nodes()[0]
	const windowPs = 100_000_000 // 100 µs
	ops := []struct {
		name string
		run  func(c *Client) (ok bool, err error)
	}{
		{"search", func(c *Client) (bool, error) { _, ok, err := c.Search(key(1)); return ok, err }},
		{"insert", func(c *Client) (bool, error) { existed, err := c.Insert(key(100), []byte("v")); return !existed, err }},
		{"update", func(c *Client) (bool, error) { return c.Update(key(2), []byte("w")) }},
		{"delete", func(c *Client) (bool, error) { return c.Delete(key(3)) }},
		{"scan", func(c *Client) (bool, error) { kvs, err := c.Scan(key(10), key(19), 0); return len(kvs) == 10, err }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			// A client's clock starts at 0: the window is its first 100 µs.
			f.SetFaultPlan(&fabric.FaultPlan{Down: []fabric.DownWindow{{Node: node, FromPs: 0, ToPs: windowPs}}})
			c := newTestClient(f, shared)
			f.SetFaultPlan(nil)
			ok, err := op.run(c)
			if err != nil || !ok {
				t.Fatalf("across a 100 µs down window = %v, %v; want it ridden out", ok, err)
			}
			if st := c.Engine().Stats(); st.Restarts == 0 || c.Engine().C.Clock() < windowPs {
				t.Errorf("%d restarts, clock %d ps: the window was never met", st.Restarts, c.Engine().C.Clock())
			}
		})
	}
	t.Run("killed node", func(t *testing.T) {
		f.KillNode(node)
		c := newTestClient(f, shared)
		_, _, err := c.Search(key(1))
		if !errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, rart.ErrRetriesExhausted) || c.Engine().Stats().Restarts != 0 {
			t.Fatalf("search on a killed node = %v after %d restarts; want the kill, at once", err, c.Engine().Stats().Restarts)
		}
	})
}
