package slo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fixedClock is an injectable clock advanced manually by tests.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fixedClock {
	return &fixedClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBurnRatesHealthy(t *testing.T) {
	clk := newClock()
	tr := New(Config{Availability: 0.99, Latency: 100 * time.Millisecond, Now: clk.Now})
	for i := 0; i < 100; i++ {
		tr.Observe(200, 5*time.Millisecond)
	}
	avail, lat := tr.BurnRates()
	if avail != 0 || lat != 0 {
		t.Fatalf("healthy burn rates = %v, %v, want 0, 0", avail, lat)
	}
}

func TestAvailabilityBurnRate(t *testing.T) {
	clk := newClock()
	// 1% error budget; 10% observed errors → burn rate 10.
	tr := New(Config{Availability: 0.99, Now: clk.Now})
	for i := 0; i < 90; i++ {
		tr.Observe(200, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(503, time.Millisecond)
	}
	avail, _ := tr.BurnRates()
	if avail < 9.99 || avail > 10.01 {
		t.Fatalf("availability burn = %v, want 10", avail)
	}
}

func TestLatencyBurnRate(t *testing.T) {
	clk := newClock()
	// 1% latency budget; half of successes slow → burn rate 50.
	tr := New(Config{Latency: 100 * time.Millisecond, Now: clk.Now})
	for i := 0; i < 10; i++ {
		tr.Observe(200, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(200, 200*time.Millisecond)
	}
	_, lat := tr.BurnRates()
	if lat < 49.99 || lat > 50.01 {
		t.Fatalf("latency burn = %v, want 50", lat)
	}
	// 5xx requests must not count toward (or against) latency budget.
	tr.Observe(500, time.Hour)
	_, lat2 := tr.BurnRates()
	if lat2 != lat {
		t.Fatalf("5xx moved latency burn: %v -> %v", lat, lat2)
	}
}

func TestWindowExpiry(t *testing.T) {
	clk := newClock()
	tr := New(Config{Availability: 0.99, Window: 3 * time.Second, Now: clk.Now})
	for i := 0; i < 50; i++ {
		tr.Observe(500, time.Millisecond)
	}
	if avail, _ := tr.BurnRates(); avail == 0 {
		t.Fatal("errors not reflected in burn rate")
	}
	// Advance past the window; the bad second expires and the new
	// healthy traffic is all that remains.
	clk.Advance(5 * time.Second)
	tr.Observe(200, time.Millisecond)
	if avail, _ := tr.BurnRates(); avail != 0 {
		t.Fatalf("burn rate %v after window expiry, want 0", avail)
	}
}

// TestExactlyOneCapture is the rate-limiting contract: a sustained
// breach storm produces exactly one profile capture per ten minutes.
func TestExactlyOneCapture(t *testing.T) {
	clk := newClock()
	var captures atomic.Int64
	tr := New(Config{
		Availability: 0.999,
		BurnAlert:    2,
		Now:          clk.Now,
		Capture: func(kind string, burn float64) error {
			captures.Add(1)
			return nil
		},
	})
	for i := 0; i < 500; i++ { // sustained 100% error rate
		tr.Observe(503, time.Millisecond)
	}
	waitFor(t, func() bool { return captures.Load() == 1 })
	if got := captures.Load(); got != 1 {
		t.Fatalf("captures = %d, want exactly 1", got)
	}

	// A breach nine minutes later is still inside the interval.
	clk.Advance(9 * time.Minute)
	for i := 0; i < 50; i++ {
		tr.Observe(503, time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := captures.Load(); got != 1 {
		t.Fatalf("captures inside the interval = %d, want 1", got)
	}

	// After the interval elapses the next breach may capture again.
	clk.Advance(2 * time.Minute)
	for i := 0; i < 50; i++ {
		tr.Observe(503, time.Millisecond)
	}
	waitFor(t, func() bool { return captures.Load() == 2 })
	if got := captures.Load(); got != 2 {
		t.Fatalf("captures after interval = %d, want 2", got)
	}
}

func TestNoCaptureBelowMinSamples(t *testing.T) {
	clk := newClock()
	var captures atomic.Int64
	tr := New(Config{
		BurnAlert: 2,
		Now:       clk.Now,
		Capture: func(string, float64) error {
			captures.Add(1)
			return nil
		},
	})
	for i := 0; i < minSamples-1; i++ { // all errors, but below the sample floor
		tr.Observe(500, time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := captures.Load(); got != 0 {
		t.Fatalf("captured %d times below minSamples", got)
	}
	tr.Observe(500, time.Millisecond)
	waitFor(t, func() bool { return captures.Load() == 1 })
}

func TestNoCaptureWhenDisabled(t *testing.T) {
	clk := newClock()
	// No ProfileDir and no Capture override: tracking only.
	tr := New(Config{BurnAlert: 1, Now: clk.Now})
	before := Captures()
	for i := 0; i < 50; i++ {
		tr.Observe(500, time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if got := Captures(); got != before {
		t.Fatalf("capture counter moved (%v -> %v) with capturing disabled", before, got)
	}
}

func TestNilTrackerIsNoop(t *testing.T) {
	var tr *Tracker
	tr.Observe(500, time.Second) // must not panic
	if a, l := tr.BurnRates(); a != 0 || l != 0 {
		t.Fatalf("nil tracker burn rates = %v, %v", a, l)
	}
}

func TestConcurrentObserve(t *testing.T) {
	clk := newClock()
	tr := New(Config{Now: clk.Now})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe(200, time.Millisecond)
				tr.BurnRates()
			}
		}()
	}
	wg.Wait()
	if avail, lat := tr.BurnRates(); avail != 0 || lat != 0 {
		t.Fatalf("burn rates = %v, %v after healthy traffic", avail, lat)
	}
}

// waitFor polls for an async condition (the capture runs in a
// goroutine) with a bounded deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition not reached within deadline")
	}
}
