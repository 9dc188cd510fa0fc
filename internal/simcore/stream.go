package simcore

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random number stream. Each model
// component draws from its own named stream so that changing one
// component's consumption pattern does not shift the randomness seen
// by the others (common random numbers across policies).
type Stream struct {
	rng *rand.Rand
}

// NewStream derives an independent stream from a root seed and a
// component name. Derivation hashes the name with FNV-1a and whitens
// both words with SplitMix64 before feeding a PCG generator.
func NewStream(seed uint64, name string) *Stream {
	h := fnv1a(name)
	return &Stream{rng: rand.New(rand.NewPCG(splitmix64(seed^h), splitmix64(h^0x9e3779b97f4a7c15)))}
}

func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the finalizer of the SplitMix64 generator, used here as
// a seed whitener so that related seeds produce unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (st *Stream) Float64() float64 { return st.rng.Float64() }

// Exp returns an exponential draw with the given mean. A non-positive
// mean returns 0, which models a degenerate (instantaneous) delay.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := st.rng.Float64()
	// Guard the log argument: Float64 can return exactly 0.
	for u == 0 {
		u = st.rng.Float64()
	}
	return -mean * math.Log(u)
}

// UniformInt returns a uniform draw in the inclusive range [lo, hi].
// When hi <= lo it returns lo.
func (st *Stream) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + st.rng.IntN(hi-lo+1)
}

// Geometric returns a draw from a geometric distribution on {1, 2, ...}
// with the given mean (mean >= 1). It is the discrete analogue of the
// exponential distribution and models counts such as pages per session.
func (st *Stream) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := st.rng.Float64()
	for u == 0 {
		u = st.rng.Float64()
	}
	n := 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// ZipfWeights returns the K probabilities of a (generalized) Zipf
// distribution: p_j ∝ 1/j^theta for j = 1..k, normalized to sum to 1.
// theta = 1 is the pure Zipf's law assumed by the paper.
func ZipfWeights(k int, theta float64) []float64 {
	if k <= 0 {
		return nil
	}
	w := make([]float64, k)
	var sum float64
	for j := 1; j <= k; j++ {
		w[j-1] = 1 / math.Pow(float64(j), theta)
		sum += w[j-1]
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}
