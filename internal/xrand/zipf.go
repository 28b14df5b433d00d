package xrand

import (
	"math"
	"sort"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(k+1)^s, matching the Zipfian datasets used by the paper (the W2
// aggregation dataset uses exponent 0.5, which is why this sampler supports
// the full range s > 0 rather than only s > 1).
//
// Sampling is by inversion against a precomputed CDF table: exact, O(log n)
// per draw, and O(n) memory. The cardinalities used by the workloads (around
// one million groups in the paper, less at simulator scale) make the table
// cost negligible next to the datasets themselves.
type Zipf struct {
	r   *Rand
	cdf []float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
// It panics if n == 0 or s <= 0.
func NewZipf(r *Rand, s float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: NewZipf with n == 0")
	}
	if s <= 0 {
		panic("xrand: NewZipf with s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := uint64(0); k < n; k++ {
		sum += math.Exp(-s * math.Log(float64(k+1)))
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding leaving the tail unreachable
	return &Zipf{r: r, cdf: cdf}
}

// Uint64 returns a Zipf-distributed value in [0, n).
func (z *Zipf) Uint64() uint64 {
	u := z.r.Float64()
	return uint64(sort.SearchFloat64s(z.cdf, u))
}
