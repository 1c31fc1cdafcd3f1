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
// time) while production users pass a nil *Clock, which is wall time.
package resilience

import (
	"sync"
	"time"
)

// Clock is a virtual monotonic clock that is advanced without
// waiting. A nil *Clock is wall time: time.Now and time.Sleep.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a virtual clock starting at the zero time. Sleep
// advances it instantly; Now never moves on its own.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current clock time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep pauses for d: virtually (advancing Now and returning at once),
// or by actually sleeping on a nil clock. Negative or zero durations
// are no-ops.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c == nil {
		time.Sleep(d)
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
