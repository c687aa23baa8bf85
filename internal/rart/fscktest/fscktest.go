// Package fscktest ends a test with the index check (rart.Check): the cluster
// builders of the index suites register it, and a test that ends in a crash's
// leftovers names their kinds. RandomOps and ScanHolds check a system's
// answers against a map: the one model check the three systems' suites share.
package fscktest

import (
	"sync"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/rart"
)

// A check is one fabric's registration: the fabric — dropped once the check
// ran, so a test that builds a cluster per iteration frees each at its Done —
// its check and the finding kinds its test ends in on purpose.
type check struct {
	f      *fabric.Fabric
	run    func(*fabric.Client) *rart.Check
	accept []rart.Kind
	undo   []func()
	last   *rart.Check // the last result, whose leaves the next is held to
}

var checks sync.Map // *fabric.Fabric → *check

// AtEnd registers run as f's check, to run through a fresh client of f when t
// ends — or at Done — and fail t on every finding of a kind not accepted.
func AtEnd(t testing.TB, f *fabric.Fabric, run func(*fabric.Client) *rart.Check) {
	c := &check{f: f, run: run}
	checks.Store(f, c)
	t.Cleanup(func() {
		if c.f != nil {
			Done(t, c.f)
		}
	})
}

// Accept names the finding kinds the test of f ends in on purpose; the test
// names next to the call the section of docs/failure-model.md that allows
// them.
func Accept(f *fabric.Fabric, kinds ...rart.Kind) {
	if c, ok := checks.Load(f); ok {
		c.(*check).accept = kinds
	}
}

// Unplant registers fn to run ahead of f's check: it takes out what the test
// planted on purpose — a fabricated hash collision — which the check would
// rightly report.
func Unplant(f *fabric.Fabric, fn func()) {
	if c, ok := checks.Load(f); ok {
		c.(*check).undo = append(c.(*check).undo, fn)
	}
}

// Now runs f's check in the middle of a test, and its findings of kinds not
// in accept fail t. The next check of f holds the leaves this one reached to
// the rule that a leaf leaves the tree retired (rart.Engine.Since).
func Now(t testing.TB, f *fabric.Fabric, what string, accept ...rart.Kind) {
	t.Helper()
	if c, ok := checks.Load(f); ok {
		for _, fd := range c.(*check).verify(f).Failures(accept...) {
			t.Errorf("%s: fsck: %v", what, fd)
		}
	}
}

func (c *check) verify(f *fabric.Fabric) *rart.Check {
	fc := f.NewClient()
	ck := c.run(fc)
	if c.last != nil {
		rart.NewEngine(fc, nil, nil, rart.Config{}).Since(ck, c.last)
	}
	c.last = ck
	return ck
}

// Done runs f's check now, for a test that is done with f and goes on to
// build the next cluster.
func Done(t testing.TB, f *fabric.Fabric) {
	t.Helper()
	for _, fd := range Failures(f) {
		t.Errorf("fsck: %v", fd)
	}
	if c, ok := checks.LoadAndDelete(f); ok {
		*c.(*check) = check{}
	}
}

// Failures runs f's check now and returns its findings of kinds not accepted.
// f's fault plan and trace are cleared first: the test is done with them.
func Failures(f *fabric.Fabric) []rart.Finding {
	c, ok := checks.Load(f)
	if !ok {
		return nil
	}
	f.SetFaultPlan(nil)
	f.Trace = nil
	for _, fn := range c.(*check).undo {
		fn()
	}
	return c.(*check).verify(f).Failures(c.(*check).accept...)
}
