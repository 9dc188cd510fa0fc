package engine

import (
	"math"
	"sync/atomic"
	"time"
)

// Clock supplies the engine's notion of current time, in seconds from
// an arbitrary but fixed epoch. The simulator passes its virtual clock
// (simcore.Simulator.Now); the live DNS server passes a WallClock.
// Implementations must be safe for concurrent callers when the engine
// is (the simulator's single-threaded clock is exempt by construction).
type Clock interface {
	Now() float64
}

// ClockFunc adapts a plain function to the Clock interface, e.g.
// ClockFunc(simulator.Now).
type ClockFunc func() float64

// Now implements Clock.
func (f ClockFunc) Now() float64 { return f() }

// WallClock is the live path's Clock: wall time in seconds since the
// clock's creation. It also converts between engine seconds and
// time.Time, so callers that speak wall time (drain deadlines,
// checkpoints) can translate ledger instants losslessly.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a wall clock whose epoch is now. The epoch is
// stripped of its monotonic reading (Round(0)) so every time.Time the
// clock derives compares by wall clock alone — matching times that
// have crossed a serialization boundary (checkpoints).
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now().Round(0)} }

// Now returns seconds elapsed since the clock's epoch.
func (c *WallClock) Now() float64 { return time.Since(c.epoch).Seconds() }

// Time converts an engine-clock instant back to wall time. Rounding
// to the nearest nanosecond makes Time∘Seconds the identity for any
// instant within ~10⁵ s of the epoch, so ledger values survive a
// checkpoint round trip through time.Time bit-exactly.
func (c *WallClock) Time(sec float64) time.Time {
	return c.epoch.Add(time.Duration(math.Round(sec * float64(time.Second))))
}

// Seconds converts a wall time to engine-clock seconds. Times before
// the epoch map to negative seconds; the ledger treats those as
// already expired.
func (c *WallClock) Seconds(t time.Time) float64 { return t.Sub(c.epoch).Seconds() }

// ManualClock is a settable Clock for tests and conformance harnesses:
// it lets a live-style engine be stepped through the exact instants a
// recorded request stream prescribes. Safe for concurrent use.
type ManualClock struct {
	bits atomic.Uint64 // float64 bits of the current time
}

// Now returns the last time Set.
func (c *ManualClock) Now() float64 { return bitsToFloat(c.bits.Load()) }

// Set moves the clock to t (seconds).
func (c *ManualClock) Set(t float64) { c.bits.Store(floatToBits(t)) }

// manualWall converts ManualClock seconds to and from wall time: a
// ManualClock's 0 is the Unix epoch.
var manualWall = WallClock{epoch: time.Unix(0, 0).UTC()}

// Time converts a ManualClock instant to wall time.
func (c *ManualClock) Time(sec float64) time.Time { return manualWall.Time(sec) }

// Seconds converts a wall time to ManualClock seconds.
func (c *ManualClock) Seconds(t time.Time) float64 { return manualWall.Seconds(t) }
