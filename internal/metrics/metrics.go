// Package metrics is a dependency-free metrics layer for the live
// serving path: counters and fixed-bucket histograms backed by atomics,
// plus gauges and counters evaluated at exposition time, collected in a
// Registry that renders the Prometheus text exposition format (version
// 0.0.4).
//
// The update paths are allocation-free and lock-free. A Counter is one
// atomic word for cold-path events; the per-query counts live in the
// DNS server's own sharded counters and reach the Registry as
// functions. A histogram's sum is sharded across cache-line-padded
// slots (the same pattern as core.Policy's TTL accumulator) so the UDP
// workers, which pass their worker index through ObserveHint, do not
// bounce a single cache line between cores.
//
// Reads (Value, Registry.WritePrometheus) sum the shards; a read
// concurrent with writers may miss in-flight updates but every total is
// monotone and exact once writers quiesce — the same contract as the
// scheduler's decision counters.
package metrics

import (
	"math"
	"sync/atomic"
)

// shards is the number of independently updated slots of a
// histogram's sum. Eight 64-byte-padded slots cover the worker counts the serve
// path runs with while keeping per-metric footprint small.
const shards = 8

// pad64 is one atomic 64-bit slot padded to a full cache line so
// adjacent shards never share a line.
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// addFloatBits atomically accumulates v into a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing counter of cold-path events.
type Counter struct {
	v atomic.Uint64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the counter total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket, plus a sharded running sum. Bucket counters are plain
// atomics (distinct buckets are distinct words); the sum is sharded
// because every observation touches it.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	buckets []atomic.Uint64
	sum     [shards]pad64 // float64 bits per shard
}

// newHistogram builds a histogram over the given strictly increasing
// upper bounds (callers validate via the Registry).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Uint64, len(b)+1),
	}
}

// ObserveHint records one observation, accumulating the sum on the
// shard selected by hint. The bucket scan is linear: exposition-grade
// histograms have ~10 buckets, where the scan beats binary search and
// branch-predicts perfectly for concentrated distributions.
func (h *Histogram) ObserveHint(hint uint32, v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	addFloatBits(&h.sum[hint%shards].v, v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	var t float64
	for i := range h.sum {
		t += math.Float64frombits(h.sum[i].v.Load())
	}
	return t
}

// Buckets returns the per-bucket upper bounds and cumulative counts,
// Prometheus-style: counts[i] is the number of observations <=
// bounds[i], with the final element the +Inf bucket (the total count
// up to in-flight updates).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.buckets))
	var run uint64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}
