package rart

import (
	"errors"
	"fmt"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/fabric/fabrictest"
	"sphinx/internal/wire"
)

// landingTree builds the tree every landing below is met in:
//
//	root —'l'→ inner node "land/" (partial "and/") —'a'→ leaf "land/alpha"
//	                                               —'b'→ leaf "land/beta"
//
// and returns the images a point operation can start from.
func landingTree(t *testing.T) (e *Engine, root func() *Node, inner *Node) {
	t.Helper()
	e, root = testEngine(t, Config{})
	mustPut(t, e, root, "land/alpha", "v")
	mustPut(t, e, root, "land/beta", "v")
	inner, err := e.SearchChainNode(root(), []byte("land/"))
	if err != nil || inner == nil || string(inner.Partial) != "and/" {
		t.Fatalf("inner node \"land/\" = %+v, %v", inner, err)
	}
	return e, root, inner
}

// TestDescentLandings is the decision table of the point operations' descent:
// every place a walk toward a key can end, met by every operation, with the
// operation's answer (or typed error) and what it cost in round trips — the
// descent's reads plus the write protocol the landing calls for. The start
// node's image is handed in, so a walk that ends in it costs nothing.
func TestDescentLandings(t *testing.T) {
	fromRoot := func(root, inner *Node) *Node { return root }
	fromInner := func(root, inner *Node) *Node { return inner }
	retired := func(root, inner *Node) *Node {
		n := *inner
		n.Hdr.Status = wire.StatusInvalid
		return &n
	}
	// got is one operation's outcome: the key of the leaf a search returned
	// ("" for none), or whether a put found / a delete removed the key.
	type got struct {
		leaf string
		yes  bool
		err  error
		rts  uint64
	}
	ops := []struct {
		name string
		run  func(e *Engine, start *Node, key []byte) (string, bool, error)
	}{
		{"search", func(e *Engine, start *Node, key []byte) (string, bool, error) {
			leaf, err := e.SearchFrom(start, key, NopHooks{})
			if leaf == nil {
				return "", false, err
			}
			return string(leaf.Key), false, err
		}},
		{"update-only", func(e *Engine, start *Node, key []byte) (string, bool, error) {
			existed, err := e.PutFrom(start, key, []byte("w"), PutUpdateOnly, NopHooks{})
			return "", existed, err
		}},
		{"upsert", func(e *Engine, start *Node, key []byte) (string, bool, error) {
			existed, err := e.PutFrom(start, key, []byte("w"), PutUpsert, NopHooks{})
			return "", existed, err
		}},
		{"delete", func(e *Engine, start *Node, key []byte) (string, bool, error) {
			ok, err := e.DeleteFrom(start, key, NopHooks{})
			return "", ok, err
		}},
	}
	restart := got{err: ErrRestart}
	cases := []struct {
		name  string
		start func(root, inner *Node) *Node
		key   string
		want  [4]got // by op, in the order of ops
	}{
		// One node read, then the key leaves the tree inside "and/": absent;
		// an upsert splits the partial (2 more round trips: the lock batch,
		// then the child's head and the parent's repoint in one).
		{"diverged inside a partial", fromRoot, "lanX",
			[4]got{{rts: 1}, {rts: 1}, {rts: 3}, {rts: 1}}},
		// The same landing in the start node itself: nothing is read, and the
		// split needs a parent the walk never saw.
		{"diverged inside the start node's partial", fromInner, "lanX",
			[4]got{{}, {}, {err: ErrNeedParent}, {}}},
		// Absent; an upsert installs a leaf (2 more round trips).
		{"empty child edge", fromRoot, "land/gamma",
			[4]got{{rts: 1}, {rts: 1}, {rts: 3}, {rts: 1}}},
		{"empty EOL", fromRoot, "land/",
			[4]got{{rts: 1}, {rts: 1}, {rts: 3}, {rts: 1}}},
		// Node read + leaf read; a same-size put is lock CAS + image WRITE, a
		// delete is the node's and the leaf's lock in one batch, then the
		// commit that clears the slot and retires the leaf.
		{"the key's leaf", fromRoot, "land/alpha",
			[4]got{{leaf: "land/alpha", rts: 2}, {yes: true, rts: 4}, {yes: true, rts: 4}, {yes: true, rts: 4}}},
		// The search hands the foreign leaf to its caller, which compares keys;
		// an upsert converts the edge into an inner node (2 more round trips).
		{"another key's leaf on the edge", fromRoot, "land/alpine",
			[4]got{{leaf: "land/alpha", rts: 2}, {rts: 2}, {rts: 4}, {rts: 2}}},
		{"an Invalid start node", retired, "land/alpha",
			[4]got{restart, restart, restart, restart}},
		// The partial "and/" matches, the 42-bit hash of the full prefix does not.
		{"an off-path node", fromInner, "Xand/alpha",
			[4]got{restart, restart, restart, restart}},
	}
	for _, tc := range cases {
		for i, op := range ops {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				e, root, inner := landingTree(t)
				start, key, want := tc.start(root(), inner), []byte(tc.key), tc.want[i]
				before := e.C.Stats().RoundTrips
				leaf, yes, err := op.run(e, start, key)
				rts := e.C.Stats().RoundTrips - before
				if leaf != want.leaf || yes != want.yes || !errors.Is(err, want.err) || (err != nil) != (want.err != nil) || rts != want.rts {
					t.Fatalf("= leaf %q, %v, %v in %d round trips; want leaf %q, %v, %v in %d",
						leaf, yes, err, rts, want.leaf, want.yes, want.err, want.rts)
				}
				if op.name != "upsert" || err != nil {
					return
				}
				for _, k := range []string{"land/alpha", "land/beta", tc.key} {
					if _, ok := mustGet(t, e, root, k); !ok {
						t.Errorf("%q unreadable after the upsert", k)
					}
				}
			})
		}
	}
}

// TestInterruptedDeleteMetByPointOps: a delete whose client crashed at any of
// its verbs leaves its locks to the crash record, never a slot naming an
// Invalid leaf (interruptedDelete checks). Every point operation that walks
// into what the cut left behind finishes, and sees k/b either still "v" —
// the cut fell before the commit — or gone; a put lands its value either way.
func TestInterruptedDeleteMetByPointOps(t *testing.T) {
	key := []byte("k/b")
	put := func(mode PutMode) func(*Engine, *Node) (bool, error) {
		return func(e *Engine, start *Node) (bool, error) {
			return e.PutFrom(start, key, []byte("w"), mode, NopHooks{})
		}
	}
	cases := []struct {
		name string
		run  func(e *Engine, start *Node) (bool, error)
		// after is what k/b reads once the operation acknowledged, given
		// whether it found the key.
		after func(found bool) (string, bool)
	}{
		{"search", func(e *Engine, start *Node) (bool, error) {
			leaf, err := e.SearchFrom(start, key, NopHooks{})
			if leaf != nil && string(leaf.Value) != "v" {
				return true, fmt.Errorf("search read %q", leaf.Value)
			}
			return leaf != nil, err
		}, func(found bool) (string, bool) { return map[bool]string{true: "v"}[found], found }},
		{"update-only", put(PutUpdateOnly), func(found bool) (string, bool) {
			return map[bool]string{true: "w"}[found], found
		}},
		{"upsert", put(PutUpsert), func(bool) (string, bool) { return "w", true }},
		{"delete", func(e *Engine, start *Node) (bool, error) {
			return e.DeleteFrom(start, key, NopHooks{})
		}, func(bool) (string, bool) { return "", false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[bool]bool{}
			fabrictest.Cuts(fabric.ErrClientCrashed, func(cut *fabrictest.Cut) {
				at := cut.K
				f, ring, root := interruptedDelete(t, cut)
				e := engineOn(f, ring)
				var found bool
				err := e.Retry(tc.name, key, func() (err error) {
					found, err = tc.run(e, root(e))
					return err
				})
				if err != nil {
					t.Fatalf("cut at verb %d: %v", at, err)
				}
				wantVal, wantOK := tc.after(found)
				reader := engineOn(f, ring)
				for _, k := range []string{"k/a", "k/b", "k/c"} {
					val, ok := mustGet(t, reader, func() *Node { return root(reader) }, k)
					want, wok := "v", true
					if k == string(key) {
						want, wok = wantVal, wantOK
					}
					if val != want || ok != wok {
						t.Errorf("cut at verb %d, found %v: %q reads %q, %v; want %q, %v", at, found, k, val, ok, want, wok)
					}
				}
				fsck(t, f, root(reader), fmt.Sprintf("cut at verb %d, after the %s", at, tc.name))
				seen[found] = seen[found] || cut.At != nil
			})
			if tc.name != "upsert" && tc.name != "delete" && !(seen[true] && seen[false]) {
				t.Errorf("found %v across the cuts; want cuts on both sides of the delete's commit", seen)
			}
		})
	}
}
