package scatter

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/resilience"
)

// fastOpts returns client options with millisecond-scale backoffs so
// the robustness paths run in test time.
func fastOpts(base string) Options {
	return Options{
		Shards:       []string{base},
		ShardTimeout: 2 * time.Second,
		Retry:        resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2},
		Breaker:      resilience.BreakerPolicy{Threshold: 10, Cooldown: time.Minute},
		Hedge:        HedgePolicy{Disable: true},
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"docs":7}`))
	}))
	defer srv.Close()

	c := newShardClient(0, srv.URL, http.DefaultClient, fastOpts(srv.URL))
	st, err := c.stats(context.Background(), "go")
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 7 {
		t.Errorf("stats = %+v", st)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (two 500s retried)", n)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad", http.StatusBadRequest)
	}))
	defer srv.Close()

	c := newShardClient(0, srv.URL, http.DefaultClient, fastOpts(srv.URL))
	if _, err := c.stats(context.Background(), "go"); err == nil {
		t.Fatal("400 reported as success")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls, want 1 (4xx is permanent)", n)
	}
}

func TestClientBreakerFailsFast(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastOpts(srv.URL)
	opts.Retry = resilience.RetryPolicy{MaxAttempts: 1}
	opts.Breaker = resilience.BreakerPolicy{Threshold: 2, Cooldown: time.Minute}
	c := newShardClient(0, srv.URL, http.DefaultClient, opts)

	for i := 0; i < 2; i++ { // trip the breaker (threshold 2)
		if _, err := c.stats(context.Background(), "go"); err == nil {
			t.Fatal("500 reported as success")
		}
	}
	seen := calls.Load()
	_, err := c.stats(context.Background(), "go")
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if calls.Load() != seen {
		t.Error("open breaker still let the request through")
	}
}

func TestClientHedgesSlowPrimary(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // primary stalls until the test ends
		}
		w.Write([]byte(`{"docs":1}`))
	}))
	defer srv.Close()
	defer close(release)

	opts := fastOpts(srv.URL)
	opts.Hedge = HedgePolicy{InitialDelay: 10 * time.Millisecond}
	c := newShardClient(0, srv.URL, http.DefaultClient, opts)

	fired0, won0 := mHedgesFired.With("0").Value(), mHedgesWon.With("0").Value()
	t0 := time.Now()
	st, err := c.stats(context.Background(), "go")
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("hedged call took %v; the backup should have answered fast", d)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d calls, want 2 (primary + hedge)", n)
	}
	if got := mHedgesFired.With("0").Value() - fired0; got != 1 {
		t.Errorf("hedges fired delta = %v, want 1", got)
	}
	if got := mHedgesWon.With("0").Value() - won0; got != 1 {
		t.Errorf("hedges won delta = %v, want 1", got)
	}
}

func TestLatencyWindowQuantile(t *testing.T) {
	w := newLatencyWindow(8)
	if _, ok := w.quantile(0.95, 4); ok {
		t.Error("empty window reported a quantile")
	}
	for i := 1; i <= 8; i++ {
		w.observe(time.Duration(i) * time.Millisecond)
	}
	q, ok := w.quantile(0.95, 4)
	if !ok || q < 6*time.Millisecond {
		t.Errorf("quantile = %v, %v", q, ok)
	}
	// The ring overwrites oldest-first: 8 more large samples shift it.
	for i := 0; i < 8; i++ {
		w.observe(time.Second)
	}
	if q, _ := w.quantile(0.5, 4); q != time.Second {
		t.Errorf("median after overwrite = %v, want 1s", q)
	}
}

func TestHedgeDelayClamps(t *testing.T) {
	opts := fastOpts("http://unused")
	opts.Hedge = HedgePolicy{MinDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond, MinSamples: 2, InitialDelay: 5 * time.Millisecond}
	c := newShardClient(0, "http://unused", http.DefaultClient, opts)

	if d, ok := c.hedgeDelay(); !ok || d != 5*time.Millisecond {
		t.Errorf("cold hedge delay = %v, %v; want InitialDelay", d, ok)
	}
	c.lat.observe(time.Microsecond)
	c.lat.observe(time.Microsecond)
	if d, _ := c.hedgeDelay(); d != 10*time.Millisecond {
		t.Errorf("fast-shard delay = %v, want MinDelay clamp", d)
	}
	c.lat.observe(time.Minute)
	c.lat.observe(time.Minute)
	c.lat.observe(time.Minute)
	c.lat.observe(time.Minute)
	if d, _ := c.hedgeDelay(); d != 20*time.Millisecond {
		t.Errorf("slow-shard delay = %v, want MaxDelay clamp", d)
	}

	c.hedge.Disable = true
	if _, ok := c.hedgeDelay(); ok {
		t.Error("disabled hedging still armed")
	}
}
