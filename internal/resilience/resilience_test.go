package resilience

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

type fakeErr struct {
	retryable bool
	hint      time.Duration
}

func (e *fakeErr) Error() string   { return "fake" }
func (e *fakeErr) Retryable() bool { return e.retryable }
func (e *fakeErr) RetryAfterHint() (time.Duration, bool) {
	return e.hint, e.hint > 0
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	clock := NewClock()
	r := &Retryer{
		Policy: RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second},
		Clock:  clock,
	}
	calls := 0
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return &fakeErr{retryable: true}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Two backoffs: 100ms + 200ms of virtual time.
	if got := clock.Elapsed(); got != 300*time.Millisecond {
		t.Errorf("elapsed = %v, want 300ms", got)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	r := &Retryer{Policy: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}, Clock: NewClock()}
	calls := 0
	sentinel := errors.New("broken")
	err := r.Do(func() error { calls++; return Permanent(sentinel) })
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	calls = 0
	if err := r.Do(func() error { calls++; return &fakeErr{retryable: false} }); err == nil || calls != 1 {
		t.Errorf("non-retryable error: err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	r := &Retryer{Policy: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}, Clock: NewClock()}
	calls, retries := 0, 0
	r.OnRetry = func(int, error, time.Duration) { retries++ }
	err := r.Do(func() error { calls++; return &fakeErr{retryable: true} })
	if err == nil || calls != 3 || retries != 2 {
		t.Errorf("err=%v calls=%d retries=%d", err, calls, retries)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	clock := NewClock()
	r := &Retryer{Policy: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, Clock: clock}
	_ = r.Do(func() error { return &fakeErr{retryable: true, hint: time.Second} })
	if got := clock.Elapsed(); got != time.Second {
		t.Errorf("elapsed = %v, want the 1s hint", got)
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		clock := NewClock()
		r := &Retryer{
			Policy: RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Jitter: 0.5},
			Clock:  clock,
			Rand:   rand.New(rand.NewSource(7)),
		}
		_ = r.Do(func() error { return &fakeErr{retryable: true} })
		return clock.Elapsed()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("jittered backoff not reproducible: %v vs %v", a, b)
	}
	// Nominal backoff is 100+200+400 ms; half-width jitter keeps the
	// total in [350ms, 700ms) with probability 1.
	if a >= 700*time.Millisecond || a < 350*time.Millisecond {
		t.Errorf("jittered total %v outside [350ms, 700ms)", a)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	clock := NewClock()
	b := NewBreaker(BreakerPolicy{Threshold: 3, Cooldown: time.Second}, clock)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("breaker did not open after threshold failures")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	b.Failure() // probe fails: re-trip immediately
	if b.Allow() {
		t.Fatal("breaker closed after a failed probe")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d", b.Trips())
	}
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.Success()
	if !b.Allow() {
		t.Error("breaker not closed after a successful probe")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := NewClock()
	b := NewBreaker(BreakerPolicy{Threshold: 1, Cooldown: time.Second}, clock)
	b.Failure()
	clock.Sleep(time.Second)
	// After the cooldown, exactly one waiter becomes the probe;
	// everyone else keeps being rejected until it reports.
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	for i := 0; i < 5; i++ {
		if b.Allow() {
			t.Fatalf("breaker admitted concurrent probe %d while one was in flight", i)
		}
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("breaker not closed after the probe succeeded")
	}

	// A failing probe re-trips: still exactly one probe per cooldown.
	b.Failure()
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent probe")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker admitted a call right after a failed probe")
	}

	// Lost-probe guard: a probe that never reports frees the slot
	// after one further cooldown instead of wedging the breaker.
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the post-retrip probe")
	}
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker never re-admitted a probe after the first was lost")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerPolicy{}, NewClock())
	for i := 0; i < 10; i++ {
		b.Failure()
	}
	if !b.Allow() {
		t.Error("disabled breaker rejected a call")
	}
}
