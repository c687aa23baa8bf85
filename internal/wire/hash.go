// Package wire defines the on-wire layouts shared by every component that
// touches remote memory: inner-node headers and slots, 64-byte-aligned
// leaves with checksums, and the 8-byte hash entries of the inner-node hash
// table (paper Fig. 3). It also provides the deterministic hash functions
// used for prefix hashing and fingerprints.
//
// Everything here is position-independent bytes: encode on the client,
// WRITE to a memory node, READ back anywhere, decode. All multi-byte fields
// are little-endian.
package wire

// Hash64 returns a 64-bit hash of b (FNV-1a with an avalanche finalizer).
// It is deterministic across runs so that experiments are reproducible.
func Hash64(b []byte) uint64 {
	return Hash64Seed(b, 0)
}

// FNV-1a's parameters, under Hash64Seed and HashStates.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64Seed returns a seeded 64-bit hash of b. Distinct seeds give
// independent hash functions, which the cuckoo structures rely on.
func Hash64Seed(b []byte, seed uint64) uint64 {
	h := uint64(fnvOffset64) ^ (seed * 0x9e3779b97f4a7c15)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return Mix64(h)
}

// HashStates appends to a and b the unfinished Hash64Seed states of every
// prefix of key, lengths 0 through len(key), under two seeds in one forward
// pass over key: for the returned sa and sb, Mix64(sa[l]) ==
// Hash64Seed(key[:l], seedA) and Mix64(sb[l]) == Hash64Seed(key[:l], seedB).
func HashStates(a, b []uint64, key []byte, seedA, seedB uint64) ([]uint64, []uint64) {
	ha := uint64(fnvOffset64) ^ (seedA * 0x9e3779b97f4a7c15)
	hb := uint64(fnvOffset64) ^ (seedB * 0x9e3779b97f4a7c15)
	a, b = append(a, ha), append(b, hb)
	for _, c := range key {
		ha = (ha ^ uint64(c)) * fnvPrime64
		hb = (hb ^ uint64(c)) * fnvPrime64
		a, b = append(a, ha), append(b, hb)
	}
	return a, b
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality avalanche used
// to derive independent bit fields (fingerprints, bucket indices) from one
// hash value.
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// PrefixHashBits is the width of the full-prefix hash stored in every
// inner-node header (paper §III-B: "a 42-bit full prefix hash").
const PrefixHashBits = 42

// PrefixHash42 returns the truncated full-prefix hash stored in inner-node
// headers to detect fingerprint collisions after a filter false positive.
func PrefixHash42(prefix []byte) uint64 {
	return Hash64(prefix) >> (64 - PrefixHashBits)
}

// FPBits is the width of the hash-entry fingerprint (paper §III-B:
// "the hash entry includes a 12-bit hash fingerprint").
const FPBits = 12

// FP12 returns the 12-bit fingerprint of a prefix stored in hash entries.
// It is derived from a different seed than PrefixHash42 so the two checks
// fail independently.
func FP12(prefix []byte) uint16 {
	return uint16(Hash64Seed(prefix, 1) >> (64 - FPBits))
}
