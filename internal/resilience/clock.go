// Package resilience provides the generic fault-handling primitives
// the system uses wherever it talks to an unreliable party: retry
// with exponential backoff and jitter, and a circuit breaker. The
// crawler composes both around the simulated platform APIs of
// internal/faults, the scatter-gather coordinator around its shard
// calls.
//
// Every primitive takes its notion of time from a Clock, so that
// simulations advance time virtually (a crawl that backs off for
// minutes of simulated time still finishes in microseconds of wall
// time) while production users can pass a real-time clock.
package resilience

import (
	"sync"
	"time"
)

// Clock is a monotonic clock that can be advanced without waiting.
// The zero value is not usable; construct with NewClock (virtual) or
// RealClock (wall time).
type Clock struct {
	mu      sync.Mutex
	now     time.Time
	virtual bool
}

// NewClock returns a virtual clock starting at the zero time. Sleep
// advances it instantly; Now never moves on its own.
func NewClock() *Clock {
	return &Clock{virtual: true}
}

// RealClock returns a clock backed by time.Now and time.Sleep.
func RealClock() *Clock {
	return &Clock{}
}

// Now returns the current clock time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	if !c.virtual {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep pauses for d: virtually (advancing Now and returning at once)
// or by actually sleeping, depending on the clock's mode. Negative or
// zero durations are no-ops.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c == nil || !c.virtual {
		time.Sleep(d)
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Elapsed reports how far a virtual clock has advanced since its
// creation. For a real clock it returns 0 (wall time has no anchor).
func (c *Clock) Elapsed() time.Duration {
	if c == nil || !c.virtual {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now.Sub(time.Time{})
}
