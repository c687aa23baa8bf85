package main

import (
	"sphinx"
)

// spec is one workload: what is set up, what is measured, and why.
//
// Counts are per unit of -seconds so that a run measures for about that long
// on the 2-vCPU reference box while staying a fixed op count: the same
// -seconds gives the same operations on every commit and every machine.
type spec struct {
	name, why string

	opsPerSecond int     // measured ops per second of -seconds, all drivers together
	loadKeys     int     // keys populated during set-up
	warmPass     bool    // set-up ends with one full Get pass per compute node
	mix          mix     // measured operation shares
	theta        float64 // zipf skew of key choice; 0 = uniform
	oneDriver    bool    // measured by a single driver whatever the CPU count
	sessions     int     // closed-loop sessions per driver, used round-robin
	cns          int     // compute nodes; driver d runs on cn d%cns
	valueSize    int

	// config returns the cluster configuration for a run holding up to keys
	// keys. Every field the ladder needs is explicit (no zero = default).
	config func(keys int, seed int64) sphinx.Config
}

const (
	scanLimit  = 50
	nodeMemory = 256 << 20
)

func baseConfig(keys int, seed int64) sphinx.Config {
	return sphinx.Config{
		System:         sphinx.SystemSphinx,
		Timing:         sphinx.TimingRDMA,
		MemoryNodes:    3,
		MemoryPerNode:  nodeMemory,
		ExpectedKeys:   keys,
		CacheBytes:     16 << 20,
		LeafCacheBytes: 512 << 10,
		Seed:           seed,
	}
}

// specs are the five workloads, in the order they are reported.
var specs = []*spec{
	{
		name: "load",
		why:  "insert path end to end: fresh-key Puts into an empty index by one driver, so virtual metrics repeat exactly; the read path does nothing here",

		opsPerSecond: 75_000,
		mix:          mix{put: 100},
		oneDriver:    true,
		sessions:     1,
		cns:          1,
		valueSize:    64,
		config:       baseConfig,
	},
	{
		name: "read-warm",
		why:  "uniform Gets over a working set that fits the CN caches (~1.2 RT/op): wall time is session, obs hooks and fabric simulation, the index layers nearly idle",

		opsPerSecond: 600_000,
		loadKeys:     65_536,
		warmPass:     true,
		mix:          mix{get: 100},
		sessions:     1,
		cns:          1,
		valueSize:    64,
		config: func(keys int, seed int64) sphinx.Config {
			c := baseConfig(keys, seed)
			// A leaf-address cache (8 B/entry) of four entries per key, the
			// ratio of the default 512 KiB to 16 384 keys. Fewer keys than
			// this and the slack in the allocator's 64 KiB slabs, which the
			// seed moves, is over 1 % of the index (see README, bounds).
			c.LeafCacheBytes = uint64(keys) * 8 * 4
			return c
		},
	},
	{
		name: "read-cold",
		why:  "uniform Gets over a working set far larger than the CN caches (~3.3 RT/op): the SFC, INHT, node, leaf path with filter eviction and false positives; mirror image of read-warm",

		opsPerSecond: 225_000,
		loadKeys:     120_000,
		warmPass:     true,
		mix:          mix{get: 100},
		sessions:     1,
		cns:          1,
		valueSize:    64,
		config: func(keys int, seed int64) sphinx.Config {
			c := baseConfig(keys, seed)
			// The paper's smallest cache point: 4.17 % of the bytes of as
			// many 8-byte keys, so the filter evicts; and a leaf-address
			// cache (8 B/entry) covering 16 % of the keys.
			c.CacheBytes = uint64(float64(keys) * 8 * 0.0417)
			c.LeafCacheBytes = uint64(float64(keys) * 8 * 0.16)
			return c
		},
	},
	{
		name: "mixed-zipf",
		why:  "zipf(0.99) mix: 50% Get, 40% Update, 8% Put of new keys, 2% Scan: writes beside reads of hot keys (one writer per key), in-place leaf writes, INHT inserts, scans; a read gain that taxes writes shows",

		opsPerSecond: 112_500,
		loadKeys:     100_000,
		mix:          mix{get: 50, update: 40, put: 8, scan: 2},
		theta:        0.99,
		sessions:     1,
		cns:          1,
		valueSize:    64,
		config:       baseConfig,
	},
	{
		name: "skew-ft-hot",
		why:  "zipf(0.99) 95% Get, 5% Update of 1 KiB values on a replicated cluster with hot-key replicas, 16 closed-loop sessions over 2 CNs: the only workload where the anchor and hot-replica layers are on",

		opsPerSecond: 150_000,
		loadKeys:     50_000,
		warmPass:     true,
		mix:          mix{get: 95, update: 5},
		theta:        0.99,
		sessions:     8,
		cns:          2,
		valueSize:    1024,
		config: func(keys int, seed int64) sphinx.Config {
			c := baseConfig(keys, seed)
			c.MemoryNodes = 4
			c.Replication = 2
			c.HotReplicaFactor = 3
			return c
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
