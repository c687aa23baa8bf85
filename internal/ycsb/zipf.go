// Package ycsb implements the YCSB benchmark engine [28] used by the
// paper's evaluation (§V-A): the zipfian, scrambled-zipfian, latest and
// uniform request distributions, the workload mixes A–E plus LOAD, and
// per-worker deterministic operation streams.
package ycsb

import (
	"math"
	"math/rand"

	"sphinx/internal/wire"
)

// DefaultTheta is the zipfian skew constant of the paper's workloads
// ("a zipfian key distribution with a skewness factor of 0.99").
const DefaultTheta = 0.99

// Zipfian draws ranks from a zipfian distribution over [0, n) using the
// Gray et al. algorithm, as in the reference YCSB implementation. The
// structure is immutable after construction and safe to share across
// workers (each worker supplies its own rand source).
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta
}

// NewZipfian builds a zipfian distribution over n items with the given
// skew. Construction is O(n) (harmonic sum) and done once per size.
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n == 0 {
		n = 1
	}
	zetan := zetaSum(n, theta)
	zeta2 := zetaSum(2, theta)
	return &Zipfian{
		n:     n,
		theta: theta,
		alpha: 1.0 / (1.0 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// N returns the population size.
func (z *Zipfian) N() uint64 { return z.n }

// Theta returns the skew constant the distribution was built with
// (0 means uniform).
func (z *Zipfian) Theta() float64 { return z.theta }

// Draw returns a rank in [0, n), rank 0 being the most popular.
func (z *Zipfian) Draw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// DrawScrambled spreads the popular ranks over the whole key space (the
// YCSB "scrambled zipfian"), so hot keys are not clustered in key order.
func (z *Zipfian) DrawScrambled(rng *rand.Rand) uint64 {
	return wire.Mix64(z.Draw(rng)) % z.n
}
