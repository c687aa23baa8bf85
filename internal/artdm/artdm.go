// Package artdm is "the original ART ported to DM" — the paper's naive
// baseline (§V-A): the adaptive radix tree lives on the memory nodes and
// every index operation traverses it from the root, paying one network
// round trip per tree level. Clients cache only the root address. Writes
// use the shared one-sided protocols of internal/rart; scans read nodes
// one at a time (no doorbell batching), which is what costs it 2.3–3.1×
// on YCSB-E in the paper's Fig. 4.
package artdm

import (
	"bytes"
	"fmt"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// Shared is the cluster-wide immutable description of one ART-on-DM index:
// everything a client needs to mount it.
type Shared struct {
	Root mem.Addr
	Ring *consistenthash.Ring
}

// Bootstrap creates an empty index across the fabric's memory nodes and
// returns its shared descriptor. Runs at cluster-setup time with direct
// region access.
func Bootstrap(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
	alloc := mem.NewAllocator(f.Regions(), 0)
	home := ring.OwnerKey(nil)
	root, err := rart.BootstrapRoot(f.Region(home), alloc, home)
	if err != nil {
		return Shared{}, fmt.Errorf("artdm: bootstrap root: %w", err)
	}
	return Shared{Root: root, Ring: ring}, nil
}

// Client is one worker's handle on the index. Not safe for concurrent use;
// create one per worker goroutine.
type Client struct {
	shared Shared
	eng    *rart.Engine
}

// NewClient mounts the index for one fabric client.
func NewClient(shared Shared, c *fabric.Client) *Client {
	return &Client{shared: shared, eng: rart.NewEngine(c, mem.NewAllocator(c, 0), shared.Ring, rart.Config{})}
}

// Engine exposes the underlying engine (stats, fabric client).
func (c *Client) Engine() *rart.Engine { return c.eng }

// fromRoot runs one operation under the engine's retry loop; every attempt
// re-reads the root and descends from it.
func (c *Client) fromRoot(op string, key []byte, attempt func(root *rart.Node) error) error {
	return c.eng.Retry(op, key, func() error {
		root, err := c.eng.ReadNode(c.shared.Root, wire.Node256)
		if err != nil {
			return err
		}
		return attempt(root)
	})
}

// Search returns the value for key.
func (c *Client) Search(key []byte) (value []byte, ok bool, err error) {
	err = c.fromRoot("artdm search", key, func(root *rart.Node) error {
		leaf, err := c.eng.SearchFrom(root, key, rart.NopHooks{})
		// A leaf on the key's path can hold a different key that merely
		// shares the prefix up to its edge.
		if ok = leaf != nil && bytes.Equal(leaf.Key, key); ok {
			value = bytes.Clone(leaf.Value) // out of the engine's arena
		}
		return err
	})
	return value, ok, err
}

// Insert stores value for key (upsert). It reports whether the key
// already existed.
func (c *Client) Insert(key, value []byte) (bool, error) {
	return c.put(key, value, rart.PutUpsert)
}

// Update overwrites the value of an existing key, reporting whether the
// key was present.
func (c *Client) Update(key, value []byte) (bool, error) {
	return c.put(key, value, rart.PutUpdateOnly)
}

func (c *Client) put(key, value []byte, mode rart.PutMode) (existed bool, err error) {
	if err := rart.CheckArgs(key, value); err != nil {
		return false, err
	}
	err = c.fromRoot("artdm put", key, func(root *rart.Node) (err error) {
		existed, err = c.eng.PutFrom(root, key, value, mode, rart.NopHooks{})
		return err
	})
	return existed, err
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(key []byte) (ok bool, err error) {
	err = c.fromRoot("artdm delete", key, func(root *rart.Node) (err error) {
		ok, err = c.eng.DeleteFrom(root, key, rart.NopHooks{})
		return err
	})
	return ok, err
}

// Scan returns up to limit keys in [lo, hi], ascending. The naive port
// reads one node per round trip — no doorbell batching.
func (c *Client) Scan(lo, hi []byte, limit int) (kvs []rart.KV, err error) {
	err = c.fromRoot("artdm scan", lo, func(root *rart.Node) (err error) {
		kvs, err = c.eng.ScanFrom(root, lo, hi, limit, false)
		return err
	})
	return kvs, err
}
