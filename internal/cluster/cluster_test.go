package cluster

import (
	"encoding/binary"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/wire"
)

// testConfig is a small Sphinx cluster on the free fabric, every per-CN
// budget nonzero.
func testConfig() Config {
	return Config{
		System: Sphinx, Net: fabric.InstantConfig(), MemoryNodes: 3, RegionBytes: 64 << 20,
		ExpectedKeys: 1000, CacheBytes: 64 << 10, LeafCacheBytes: 64 << 10, Seed: 1,
	}
}

// TestComputeNodeTiers holds the assembly to its rule: a compute node holds a
// cache for each nonzero budget its system has and none for a zero one, a
// hot-key tracker exactly when the cluster has the hot layer, and replication
// builds the fault-tolerance layer. Whatever it holds, a client mounted on it
// serves, and the node's caches are what the index exports.
func TestComputeNodeTiers(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		edit                    func(*Config)
		filter, lac, hot, cache bool
	}{
		{name: "sphinx", edit: func(*Config) {}, filter: true, lac: true},
		{name: "zero filter budget", edit: func(c *Config) { c.CacheBytes = 0 }, lac: true},
		{name: "zero leaf cache budget", edit: func(c *Config) { c.LeafCacheBytes = 0 }, filter: true},
		{name: "replicated", edit: func(c *Config) { c.Replication = 2 }, filter: true, lac: true},
		{name: "hot", edit: func(c *Config) { c.Replication, c.HotFactor = 2, 3 }, filter: true, lac: true, hot: true},
		{name: "smart", edit: func(c *Config) { c.System = SMART }, cache: true},
		{name: "art", edit: func(c *Config) { c.System = ART }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.edit(&cfg)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ft := c.Sphinx.FT != nil; ft != (cfg.Replication > 0) {
				t.Errorf("fault-tolerance layer built: %v, replication %d", ft, cfg.Replication)
			}
			if hot := c.Sphinx.Hot != nil; hot != tc.hot {
				t.Errorf("hot layer built: %v, want %v", hot, tc.hot)
			}
			cns := []*ComputeNode{c.NewComputeNode(), c.NewComputeNode()}
			for i, cn := range cns {
				got := [4]bool{cn.Filter != nil, cn.LAC != nil, cn.Hot != nil, cn.Cache != nil}
				if want := [4]bool{tc.filter, tc.lac, tc.hot, tc.cache}; got != want {
					t.Errorf("compute node %d holds filter, LAC, tracker, node cache = %v, want %v", i, got, want)
				}
				idx := c.Mount(cn, c.F.NewClient(), nil, nil, nil)
				key := []byte{'k', byte(i)}
				if _, err := idx.Insert(key, []byte("v")); err != nil {
					t.Fatal(err)
				}
				if v, ok, err := idx.Search(key); err != nil || !ok || string(v) != "v" {
					t.Fatalf("compute node %d: Search = %q, %v, %v", i, v, ok, err)
				}
				if tiers := tc.filter || tc.lac || tc.hot || tc.cache; (cn.CacheBytes() > 0) != tiers {
					t.Errorf("compute node %d: CacheBytes %d with tiers %v", i, cn.CacheBytes(), tiers)
				}
			}
			src := c.Sources(cns...)
			if n := [3]int{len(src.Filters), len(src.LACs), len(src.Hots)}; n != [3]int{count(tc.filter), count(tc.lac), count(tc.hot)} {
				t.Errorf("sources name %v filters, LACs, trackers", n)
			}
			if (src.Shared != nil) != (cfg.System == Sphinx) {
				t.Errorf("sources name the Sphinx index on a %v cluster: %v", cfg.System, src.Shared != nil)
			}
		})
	}
}

// count is the number of the two compute nodes holding a tier they either
// both hold or both lack.
func count(held bool) int {
	if held {
		return 2
	}
	return 0
}

// TestFilterCacheGrowsTowardBudget loads eight times the keys a cluster was
// told to expect. Each compute node's filter starts at the size
// ExpectedKeys needs and doubles as the index outgrows it, its table never
// past CacheBytes, and every key reads back. A doubling drops what the filter
// held, so the first Get pass afterwards re-learns the prefixes no later
// put touched; from the second pass on, the grown filter costs within 2 %
// of the round trips of one on a cluster that expected every key.
func TestFilterCacheGrowsTowardBudget(t *testing.T) {
	const keys = 80_000
	const budget = 128 << 10
	// Random 8-byte keys: about 23 000 inner nodes, over half the slots of a
	// 64 KiB filter, the start for 10 000 keys; one doubling reaches the
	// budget, where the filter stops.
	key := func(i int) []byte { return binary.BigEndian.AppendUint64(nil, wire.Mix64(uint64(i))) }
	getPasses := func(expected int) (rtPerGet [2]float64, grows uint64) {
		cfg := testConfig()
		cfg.ExpectedKeys, cfg.CacheBytes, cfg.LeafCacheBytes = expected, budget, 512<<10
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cn := c.NewComputeNode()
		fc := c.F.NewClient()
		s := c.Mount(cn, fc, nil, nil, nil)
		start := cn.Filter.SizeBytes()
		for i := 0; i < keys; i++ {
			if _, err := s.Insert(key(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if size := cn.Filter.SizeBytes(); size > budget {
				t.Fatalf("expected %d: filter of %d B over its %d B budget after %d puts", expected, size, budget, i+1)
			}
		}
		for pass := range rtPerGet {
			rt0 := fc.RoundTrips()
			for i := 0; i < keys; i++ {
				if v, ok, err := s.Search(key(i)); err != nil || !ok || string(v) != "v" {
					t.Fatalf("expected %d: Get(%x) = %q, %v, %v", expected, key(i), v, ok, err)
				}
			}
			rtPerGet[pass] = float64(fc.RoundTrips()-rt0) / keys
		}
		if size := cn.Filter.SizeBytes(); size != budget {
			t.Errorf("expected %d: filter ends at %d B, short of its %d B budget", expected, size, budget)
		}
		st := cn.Filter.FilterStats()
		t.Logf("expected %d: filter %d → %d B, %d doublings dropping %d, %.4f then %.4f RT/Get",
			expected, start, cn.Filter.SizeBytes(), st.Grows, st.GrowDrops, rtPerGet[0], rtPerGet[1])
		return rtPerGet, st.Grows
	}
	grown, grows := getPasses(10_000)
	if grows == 0 {
		t.Fatal("the filter of a cluster expecting 10 000 keys never doubled under 80 000")
	}
	if sized, _ := getPasses(keys); grown[1] > 1.02*sized[1] {
		t.Errorf("second Get pass on the grown filter: %.4f RT/op, over 2 %% above the %.4f of one sized for every key", grown[1], sized[1])
	}
}
