package scatter

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/index"
	"expertfind/internal/resilience"
	"expertfind/internal/telemetry"
)

// Hedging: when a shard call outlives the shard's recent latency
// quantile, an identical backup request is launched and the first reply
// wins. It bounds tail latency without multiplying steady-state load —
// the trigger fires only for calls already slower than (almost) all
// recent ones.
const (
	// hedgeQuantile is the quantile of a shard's recent latencies that
	// arms the hedge timer.
	hedgeQuantile = 0.95
	// hedgeMinDelay and hedgeMaxDelay clamp the trigger, so a very fast
	// shard cannot arm hedges in the noise floor and a very slow one
	// cannot push the trigger past the call deadline.
	hedgeMinDelay = 2 * time.Millisecond
	hedgeMaxDelay = 250 * time.Millisecond
	// hedgeInitialDelay is the trigger until the window holds
	// hedgeMinSamples latencies.
	hedgeInitialDelay = 50 * time.Millisecond
	hedgeMinSamples   = 8
)

// latencyWindow is a bounded ring of recent call latencies; its
// quantile drives the hedge trigger.
type latencyWindow struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	n       int
}

func newLatencyWindow(capacity int) *latencyWindow {
	return &latencyWindow{samples: make([]time.Duration, capacity)}
}

func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples[w.next] = d
	w.next = (w.next + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
}

// quantile returns the q-quantile of the window, or false until the
// window holds at least min samples.
func (w *latencyWindow) quantile(q float64, min int) (time.Duration, bool) {
	w.mu.Lock()
	sorted := make([]time.Duration, w.n)
	copy(sorted, w.samples[:w.n])
	w.mu.Unlock()
	if len(sorted) < min {
		return 0, false
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(q*float64(len(sorted)-1))], true
}

// httpError is a non-2xx shard reply. 5xx replies are transient (the
// shard may be mid-restart) and retryable; 4xx replies mean the
// request itself is wrong and retrying cannot help.
type httpError struct {
	status int
	phase  string
	shard  int
}

func (e *httpError) Error() string {
	return fmt.Sprintf("scatter: shard %d %s: HTTP %d", e.shard, e.phase, e.status)
}

func (e *httpError) Retryable() bool { return e.status >= 500 }

// shardClient wraps every call to one shard process in the
// robustness stack: per-call deadline, circuit breaker, bounded
// retries with backoff, and latency-quantile hedging.
type shardClient struct {
	id    int
	label string // decimal id, the metric label
	base  string
	http  *http.Client

	timeout time.Duration
	breaker *resilience.Breaker
	retry   resilience.Retryer
	noHedge bool
	lat     *latencyWindow
}

func newShardClient(id int, base string, hc *http.Client, opts Options) *shardClient {
	c := &shardClient{
		id:      id,
		label:   strconv.Itoa(id),
		base:    base,
		http:    hc,
		timeout: opts.shardTimeout(),
		breaker: resilience.NewBreaker(opts.breakerPolicy(), nil),
		noHedge: opts.NoHedge,
		lat:     newLatencyWindow(64),
	}
	c.breaker.OnStateChange = func(open bool) {
		v := 0.0
		if open {
			v = 1
		}
		mBreakerOpen.With(c.label).Set(v)
	}
	c.retry = resilience.Retryer{
		Policy: opts.retryPolicy(),
		OnRetry: func(int, error, time.Duration) {
			mRetries.With(c.label).Inc()
		},
	}
	return c
}

// call performs one logical shard call — breaker gate, retry loop,
// hedged attempts — and decodes the winning JSON reply into out.
func (c *shardClient) call(ctx context.Context, phase, method, path string, query url.Values, body, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("scatter: shard %d %s: encode: %w", c.id, phase, err)
		}
		payload = b
	}

	t0 := time.Now()
	err := c.retry.Do(func() error {
		if err := ctx.Err(); err != nil {
			return resilience.Permanent(err)
		}
		if !c.breaker.Allow() {
			return resilience.Permanent(fmt.Errorf("scatter: shard %d %s: %w", c.id, phase, resilience.ErrOpen))
		}
		raw, err := c.attempt(ctx, phase, method, u, payload)
		if err != nil {
			c.breaker.Failure()
			return err
		}
		c.breaker.Success()
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				return resilience.Permanent(&MalformedError{Shard: c.id, Err: fmt.Errorf("%s reply: %w", phase, err)})
			}
		}
		return nil
	})
	mShardSeconds.With(c.label, phase).ObserveSince(t0)
	if err != nil {
		mShardErrors.With(c.label, phase).Inc()
	}
	return err
}

// attempt runs one request attempt under the per-call deadline,
// launching a hedged duplicate if the primary outlives the latency
// trigger. The first success wins; the loser's reply is discarded.
// Each launch records its own child span under the call's span and
// stamps that span's id onto the outbound request, so the shard's
// trace nests under the exact attempt that carried it.
func (c *shardClient) attempt(ctx context.Context, phase, method, u string, payload []byte) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	tr := telemetry.TraceFrom(ctx)
	callSpan := telemetry.SpanFrom(ctx)

	type reply struct {
		raw    []byte
		err    error
		hedged bool
		t0     time.Time
	}
	ch := make(chan reply, 2)
	launch := func(hedged bool) {
		name := "attempt"
		if hedged {
			name = "hedge"
		}
		asp := tr.StartChildSpan(callSpan.ID(), name)
		t0 := time.Now()
		raw, err := c.roundTrip(telemetry.ContextWithSpan(cctx, asp), phase, method, u, payload)
		if err != nil {
			asp.SetAttr("error", err.Error())
		}
		asp.End()
		ch <- reply{raw: raw, err: err, hedged: hedged, t0: t0}
	}
	go launch(false)

	var hedgeC <-chan time.Time
	if delay, ok := c.hedgeDelay(); ok {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	pending := 1
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				c.lat.observe(time.Since(r.t0))
				if r.hedged {
					mHedgesWon.With(c.label).Inc()
				}
				return r.raw, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			mHedgesFired.With(c.label).Inc()
			pending++
			go launch(true)
		}
	}
}

// hedgeDelay returns the current hedge trigger, or false when hedging
// is disabled.
func (c *shardClient) hedgeDelay() (time.Duration, bool) {
	if c.noHedge {
		return 0, false
	}
	d, ok := c.lat.quantile(hedgeQuantile, hedgeMinSamples)
	if !ok {
		return hedgeInitialDelay, true
	}
	return min(max(d, hedgeMinDelay), hedgeMaxDelay), true
}

// roundTrip performs one HTTP exchange with the shard; every request
// the coordinator sends goes through it. It propagates the query's
// request id and span so the shard joins the coordinator's trace, reads
// at most maxReplyBytes of the reply, and turns a non-2xx status into
// an httpError, permanent for a 4xx.
func (c *shardClient) roundTrip(ctx context.Context, phase, method, u string, payload []byte) ([]byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := telemetry.TraceFrom(ctx).ID(); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if spanID := telemetry.SpanFrom(ctx).ID(); spanID != "" {
		req.Header.Set(telemetry.SpanHeader, spanID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err // transport failure: transient, retryable
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		herr := &httpError{status: resp.StatusCode, phase: phase, shard: c.id}
		if herr.Retryable() {
			return nil, herr
		}
		return nil, resilience.Permanent(herr)
	}
	return raw, nil
}

// maxReplyBytes bounds a shard reply so a corrupted shard cannot make
// the coordinator buffer unbounded data.
const maxReplyBytes = 64 << 20

func (c *shardClient) meta(ctx context.Context) (Meta, error) {
	var m Meta
	err := c.call(ctx, "meta", http.MethodGet, "/v1/shard/meta", nil, nil, &m)
	return m, err
}

func (c *shardClient) stats(ctx context.Context, need string) (index.GlobalStats, error) {
	var s index.GlobalStats
	err := c.call(ctx, "stats", http.MethodGet, "/v1/shard/stats", url.Values{"q": {need}}, nil, &s)
	return s, err
}

func (c *shardClient) find(ctx context.Context, req FindRequest) (FindResponse, error) {
	var r FindResponse
	err := c.call(ctx, "find", http.MethodPost, "/v1/shard/find", nil, req, &r)
	return r, err
}

// ready probes the shard's readiness endpoint outside the breaker and
// retry stack: health probes must observe a down shard, not be
// shielded from it.
func (c *shardClient) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	_, err := c.roundTrip(ctx, "ready", http.MethodGet, c.base+"/readyz", nil)
	return err
}
