package main

import (
	"math"
)

// rng is the benchmark's own seeded generator (splitmix64): every key,
// operation and value the program under test receives derives from it, so
// one -seed fixes the whole load.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n) by multiply-shift (no modulo bias worth
// caring about at these n).
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// hashKey is the key hash carried inside every value (FNV-1a, finalised).
func hashKey(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return mix64(h)
}

// Vocabulary of the email-like key generator: a skewed handful of
// providers and common name parts give the dense shared prefixes that make
// a radix tree over addresses deep; digit and handle tails give the
// cardinality.
var (
	providers = []string{
		"gmail.com", "outlook.com", "yahoo.com", "proton.me", "qq.com",
		"icloud.com", "gmx.net", "mail.ru", "163.com", "web.de",
		"free.fr", "aol.com", "zoho.in", "naver.com", "uol.br", "me.com",
	}
	// providerCum is the cumulative share (of 128) of each provider.
	providerCum = []int{40, 58, 72, 80, 87, 93, 98, 103, 108, 112, 116, 119, 122, 124, 126, 128}

	givenNames = []string{
		"ana", "ben", "chloe", "dmitri", "elif", "fatima", "goran", "hana",
		"ivan", "jun", "kofi", "lucia", "mei", "nadia", "omar", "priya",
		"quinn", "rosa", "sven", "tariq", "uma", "vera", "wen", "xavi",
		"yuki", "zara", "al", "bo", "cy", "di",
	}
	familyNames = []string{
		"ito", "khan", "lee", "meyer", "nowak", "okafor", "patel", "rossi",
		"sato", "tan", "ueda", "vega", "wu", "yilmaz", "zhou", "adams",
		"berg", "costa", "dubois", "evans", "fischer", "gomez",
	}
)

const (
	minKeyLen = 2
	maxKeyLen = 32
)

// appendKey writes one candidate key to dst.
func appendKey(dst []byte, r *rng) []byte {
	if r.intn(100) < 3 {
		// A small share of very short local names pulls the minimum to 2.
		for n := minKeyLen + r.intn(3); n > 0; n-- {
			dst = append(dst, byte('a'+r.intn(26)))
		}
		return dst
	}
	given := givenNames[r.intn(len(givenNames))]
	switch r.intn(4) {
	case 0:
		dst = append(dst, given...)
		dst = appendUint(dst, uint64(r.intn(100000)))
	case 1:
		dst = append(dst, given...)
		dst = append(dst, '.')
		dst = append(dst, familyNames[r.intn(len(familyNames))]...)
		dst = appendUint(dst, uint64(r.intn(1000)))
	case 2:
		dst = append(dst, given[0])
		dst = append(dst, familyNames[r.intn(len(familyNames))]...)
		dst = appendUint(dst, uint64(r.intn(10000)))
	default:
		for n := 4 + r.intn(8); n > 0; n-- {
			dst = append(dst, byte('a'+r.intn(26)))
		}
		dst = appendUint(dst, uint64(r.intn(100)))
	}
	dst = append(dst, '@')
	p := r.intn(128)
	for i, cum := range providerCum {
		if p < cum {
			return append(dst, providers[i]...)
		}
	}
	return dst
}

func appendUint(dst []byte, v uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// keySet is n distinct keys in generation (that is, random) order plus the
// hash each value must carry. Keys share one backing array.
type keySet struct {
	keys   [][]byte
	hashes []uint64
}

// genKeys returns n distinct email-like keys of 2–32 bytes.
func genKeys(n int, seed uint64) keySet {
	r := newRNG(seed)
	ks := keySet{keys: make([][]byte, 0, n), hashes: make([]uint64, 0, n)}
	seen := make(map[uint64]struct{}, n)
	backing := make([]byte, 0, n*20)
	for len(ks.keys) < n {
		start := len(backing)
		backing = appendKey(backing, r)
		k := backing[start:len(backing):len(backing)]
		h := hashKey(k)
		_, dup := seen[h]
		if dup || len(k) > maxKeyLen {
			backing = backing[:start]
			continue
		}
		seen[h] = struct{}{}
		ks.keys = append(ks.keys, k)
		ks.hashes = append(ks.hashes, h)
	}
	return ks
}

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta (Gray et al.'s
// rejection-free method, as YCSB uses). Keys are stored in random order, so
// rank i → key i is already a scrambled assignment: hot keys are spread
// over the key space and over the memory nodes.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		var s float64
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	i := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= int(z.n) {
		i = int(z.n) - 1
	}
	return i
}

// Operation kinds of a stream, packed into the top two bits of an op word;
// the low 30 bits index the key set.
const (
	opGet = iota
	opUpdate
	opPut
	opScan
	numKinds

	kindShift = 30
	keyMask   = 1<<kindShift - 1
)

var kindNames = [numKinds]string{"get", "update", "put", "scan"}

// mix is a workload's operation shares, in percent.
type mix struct{ get, update, put, scan int }

// genStream builds the operations of driver d of drivers. Gets, Updates and
// Scans draw from the loaded keys [0, loaded) — uniformly, or by zipf when z
// is set; the i-th Put of the stream takes the i-th fresh key, fresh[i].
//
// Every key has ONE writer: an Update goes to the drawn key's neighbour whose
// index is d modulo drivers, so drivers never write the same leaf (they still
// read each other's). Two writers on one leaf can wedge it for good on this
// commit; see README.
func genStream(n int, m mix, loaded int, z *zipf, fresh []uint32, d, drivers int, r *rng) []uint32 {
	ops := make([]uint32, n)
	nextFresh := 0
	for i := range ops {
		p := r.intn(100)
		var kind uint32
		switch {
		case p < m.get:
			kind = opGet
		case p < m.get+m.update:
			kind = opUpdate
		case p < m.get+m.update+m.put && nextFresh < len(fresh):
			ops[i] = opPut<<kindShift | fresh[nextFresh]
			nextFresh++
			continue
		case p < m.get+m.update+m.put:
			kind = opGet // fresh keys used up: cannot happen at the sized pool
		default:
			kind = opScan
		}
		var key int
		if z != nil {
			key = z.draw(r)
		} else {
			key = r.intn(loaded)
		}
		if kind == opUpdate {
			if key = key - key%drivers + d; key >= loaded {
				key -= drivers
			}
		}
		ops[i] = kind<<kindShift | uint32(key)
	}
	return ops
}

// streamHash folds key bytes and op words into one number: equal seeds must
// give equal hashes, whatever the machine or the run.
func streamHash(ks keySet, streams [][]uint32) uint64 {
	h := uint64(len(ks.keys))
	for _, kh := range ks.hashes {
		h = mix64(h ^ kh)
	}
	for _, s := range streams {
		for _, op := range s {
			h = mix64(h ^ uint64(op))
		}
	}
	return h
}
