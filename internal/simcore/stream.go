package simcore

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random number stream. Each model
// component draws from its own named stream so that changing one
// component's consumption pattern does not shift the randomness seen
// by the others (common random numbers across policies).
//
// The PCG is held by value and read directly: the draws are
// math/rand/v2's (*Rand).Float64 and IntN over the same generator, bit
// for bit, without a call through the rand.Source interface each.
type Stream struct {
	pcg rand.PCG
}

// NewStream derives an independent stream from a root seed and a
// component name. Derivation hashes the name with FNV-1a and whitens
// both words with SplitMix64 before feeding a PCG generator.
func NewStream(seed uint64, name string) *Stream {
	st := new(Stream)
	st.seed(seed, name)
	return st
}

func (st *Stream) seed(seed uint64, name string) {
	h := fnv1a(name)
	st.pcg.Seed(splitmix64(seed^h), splitmix64(h^0x9e3779b97f4a7c15))
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
func (st *Stream) Float64() float64 { return float64(st.pcg.Uint64()<<11>>11) / (1 << 53) }

// positive returns a uniform draw in (0, 1), the argument of every
// logarithm here: Float64 can return exactly 0, which is drawn again.
func (st *Stream) positive() float64 {
	for {
		if u := st.Float64(); u != 0 {
			return u
		}
	}
}

// Exp returns an exponential draw with the given mean. A non-positive
// mean returns 0, which models a degenerate (instantaneous) delay.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(st.positive())
}

// UniformInt returns a uniform draw in the inclusive range [lo, hi].
// When hi <= lo it returns lo.
func (st *Stream) UniformInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + int(st.uint64n(uint64(hi-lo+1)))
}

// uint64n is math/rand/v2's 64-bit uint64n: Lemire's multiply-shift
// with rejection, a mask when n is a power of two. Its 32-bit uint32n
// is specified to give the same sequence, so this one form serves
// every GOARCH.
func (st *Stream) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return st.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(st.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(st.pcg.Uint64(), n)
		}
	}
	return hi
}

// Geometric returns a draw from a geometric distribution on {1, 2, ...}
// with the given mean (mean >= 1). It is the discrete analogue of the
// exponential distribution and models counts such as pages per session.
func (st *Stream) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1 + int(math.Floor(math.Log(st.positive())/math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// ExpStream is a stream read only through Exp, which lets it take its
// logarithms ahead: a refill computes -log(u) for the next 64 draws in
// one loop, whose logarithms overlap, and the other 63 draws are a
// multiply each. The draws equal Stream.Exp's on the same seed and name
// bit for bit, since (-mean)*log(u) == mean*(-log(u)) exactly.
type ExpStream struct {
	st   Stream
	next int
	logs [expBatch]float64 // -log(u) of the draws from next on
}

const expBatch = 64

// Exp returns an exponential draw with the given mean, as Stream.Exp.
func (e *ExpStream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if e.next == expBatch {
		for i := range e.logs {
			e.logs[i] = -math.Log(e.st.positive())
		}
		e.next = 0
	}
	x := mean * e.logs[e.next]
	e.next++
	return x
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
