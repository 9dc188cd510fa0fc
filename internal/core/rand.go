package core

import "sync"

// Rand is the source of randomness required by the probabilistic
// selectors. simcore.Stream and math/rand generators satisfy it.
// Implementations need not be safe for concurrent use: constructors
// that share one Rand across concurrent callers wrap it with LockRand.
type Rand interface {
	Float64() float64
}

// lockedRand serializes draws from a shared underlying generator so
// probabilistic selectors stay safe under concurrent Schedule calls.
// Single-threaded callers see the exact same draw sequence as with the
// bare generator, preserving simulation determinism.
type lockedRand struct {
	mu sync.Mutex
	r  Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	v := l.r.Float64()
	l.mu.Unlock()
	return v
}

// LockRand wraps a Rand with a mutex so it can be shared by concurrent
// callers. It is idempotent: an already-locked Rand is returned as is,
// so components that share one generator (a policy's selector and its
// proximity step) also share one lock. A nil Rand stays nil.
func LockRand(r Rand) Rand {
	if r == nil {
		return nil
	}
	if _, ok := r.(*lockedRand); ok {
		return r
	}
	return &lockedRand{r: r}
}
