package engine

import (
	"math"
	"sync/atomic"
)

// Ledger is the outstanding-mapping (hidden-load) ledger: it tracks,
// per server slot, the latest engine-clock instant at which a mapping
// handed out for that server can still sit in a downstream resolver
// cache. This is the paper's hidden-load window — the interval during
// which cached (domain → server) mappings keep directing traffic the
// scheduler no longer controls — and the graceful-drain deadline on
// both the simulated and the live path.
//
// Updates are lock-free CAS-max on one atomic word per slot; the slot
// table grows copy-on-write when a dynamically joined server exceeds
// the allocated slots, sharing the individual cells between old and
// new tables so no update is ever lost to a race.
type Ledger struct {
	slots atomic.Pointer[[]*atomic.Uint64] // float64 bits of the expiry instant
}

func floatToBits(v float64) uint64 { return math.Float64bits(v) }
func bitsToFloat(b uint64) float64 { return math.Float64frombits(b) }

// NewLedger creates a ledger with n pre-allocated slots.
func NewLedger(n int) *Ledger {
	if n < 0 {
		n = 0
	}
	l := &Ledger{}
	cells := make([]*atomic.Uint64, n)
	for i := range cells {
		cells[i] = new(atomic.Uint64)
	}
	l.slots.Store(&cells)
	return l
}

// slot returns the cell for server i, growing the table copy-on-write
// when i exceeds the allocated slots.
func (l *Ledger) slot(i int) *atomic.Uint64 {
	for {
		cur := l.slots.Load()
		if i < len(*cur) {
			return (*cur)[i]
		}
		next := make([]*atomic.Uint64, i+1)
		copy(next, *cur)
		for j := len(*cur); j <= i; j++ {
			next[j] = new(atomic.Uint64)
		}
		if l.slots.CompareAndSwap(cur, &next) {
			return next[i]
		}
	}
}

// Grow pre-allocates slots up to n so subsequent Extend calls on the
// query path never pay the copy-on-write growth. It never shrinks.
func (l *Ledger) Grow(n int) {
	if n > 0 {
		l.slot(n - 1)
	}
}

// Extend records that a mapping for server i can stay cached until
// expiry (engine-clock seconds): the slot becomes max(current, expiry).
// Lock-free; safe for concurrent callers.
func (l *Ledger) Extend(i int, expiry float64) {
	if i < 0 || math.IsNaN(expiry) {
		return
	}
	cell := l.slot(i)
	newBits := floatToBits(expiry)
	for {
		old := cell.Load()
		if expiry <= bitsToFloat(old) || cell.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Expiry returns the latest recorded mapping expiry for server i in
// engine-clock seconds, or 0 when no mapping was ever recorded (and
// for out-of-range slots).
func (l *Ledger) Expiry(i int) float64 {
	cur := *l.slots.Load()
	if i < 0 || i >= len(cur) {
		return 0
	}
	return bitsToFloat(cur[i].Load())
}
