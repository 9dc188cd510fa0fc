package nameserver

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative minTTL should error")
	}
	if _, err := New(0); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(0); ok {
		t.Fatal("empty cache should miss")
	}
	got := c.Store(0, 3, 240)
	if got != 240 {
		t.Errorf("effective TTL = %v, want 240", got)
	}
	server, ok := c.Lookup(100)
	if !ok || server != 3 {
		t.Errorf("Lookup = (%d,%v), want (3,true)", server, ok)
	}
	// At exactly the expiry instant the mapping is stale.
	if _, ok := c.Lookup(240); ok {
		t.Error("mapping should expire at now+TTL")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
	}
}

func TestNonCooperativeClamping(t *testing.T) {
	c, err := New(120)
	if err != nil {
		t.Fatal(err)
	}
	// Proposed 40 s is below the NS minimum: clamped to 120.
	if got := c.Store(0, 1, 40); got != 120 {
		t.Errorf("effective TTL = %v, want clamped 120", got)
	}
	if _, ok := c.Lookup(119); !ok {
		t.Error("mapping should still be valid before the clamped expiry")
	}
	if _, ok := c.Lookup(121); ok {
		t.Error("mapping should expire after the clamped TTL")
	}
	// Proposed 300 s is above the minimum: honoured.
	if got := c.Store(200, 2, 300); got != 300 {
		t.Errorf("effective TTL = %v, want 300", got)
	}
	if c.Stats().Clamped != 1 {
		t.Errorf("Clamped = %d, want 1", c.Stats().Clamped)
	}
}

func TestZeroTTLNotCached(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Store(0, 1, 0); got != 0 {
		t.Errorf("effective TTL = %v, want 0", got)
	}
	if _, ok := c.Lookup(0); ok {
		t.Error("zero-TTL mapping must not be cached by a cooperative NS")
	}
}

func TestExpiry(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(10, 2, 240)
	if _, ok := c.Lookup(249.999); !ok {
		t.Error("mapping lapsed before its expiry at 250")
	}
	if _, ok := c.Lookup(250); ok {
		t.Error("mapping still answered at its expiry, 250")
	}
}

func TestStoreOverwrites(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(0, 1, 100)
	c.Store(50, 2, 100)
	server, ok := c.Lookup(120)
	if !ok || server != 2 {
		t.Errorf("Lookup = (%d,%v), want the newer mapping (2,true)", server, ok)
	}
}

func TestEffectiveTTLNeverBelowMinProperty(t *testing.T) {
	f := func(minRaw, ttlRaw uint16) bool {
		min := float64(minRaw % 600)
		ttl := float64(ttlRaw%1200) + 1
		c, err := New(min)
		if err != nil {
			return false
		}
		eff := c.Store(0, 0, ttl)
		if eff < min {
			return false
		}
		if ttl >= min && eff != ttl {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
