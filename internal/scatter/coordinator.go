package scatter

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/index"
	"expertfind/internal/resilience"
	"expertfind/internal/telemetry"
)

// ErrNoShards is returned when a query cannot reach any shard of the
// topology: there is nothing to degrade to, so the query fails.
var ErrNoShards = errors.New("scatter: no shards reachable")

// ErrNotBootstrapped is returned while the coordinator has not yet
// validated the topology against any shard's metadata.
var ErrNotBootstrapped = errors.New("scatter: topology not bootstrapped")

// Options configures a Coordinator. Zero values select the documented
// defaults.
type Options struct {
	// Shards are the shard base URLs; position i must be the process
	// serving shard i of len(Shards).
	Shards []string
	// ShardTimeout is the per-call deadline budget for one shard
	// request (each retry attempt gets a fresh budget). 0 selects 2s.
	ShardTimeout time.Duration
	// Retry bounds per-shard retries. A zero policy selects 3 attempts,
	// 25ms base backoff doubling to 250ms, half-width jitter.
	Retry resilience.RetryPolicy
	// Breaker is the per-shard circuit breaker policy. A zero policy
	// selects 3 consecutive failures and a 1s cooldown.
	Breaker resilience.BreakerPolicy
	// NoHedge turns off hedged second requests. By default a shard
	// call that outlives the shard's recent p95 latency gets an
	// identical backup request, and the first reply wins.
	NoHedge bool
	// HealthInterval paces the background health loop of Run. 0
	// selects 1s.
	HealthInterval time.Duration
	// Logger receives topology state changes as structured records;
	// nil silences them.
	Logger *slog.Logger
}

func (o Options) shardTimeout() time.Duration {
	if o.ShardTimeout > 0 {
		return o.ShardTimeout
	}
	return 2 * time.Second
}

func (o Options) retryPolicy() resilience.RetryPolicy {
	if o.Retry != (resilience.RetryPolicy{}) {
		return o.Retry
	}
	return resilience.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

func (o Options) breakerPolicy() resilience.BreakerPolicy {
	if o.Breaker != (resilience.BreakerPolicy{}) {
		return o.Breaker
	}
	return resilience.BreakerPolicy{Threshold: 3, Cooldown: time.Second}
}

// maxIdleConnsPerShard sizes the connection pool kept to each shard for
// the fan-out one process admits: 64 concurrent queries (serve's
// -max-concurrent default), each with at most a phase's primary call
// and its hedge in flight per shard. http.DefaultTransport keeps 2, so
// every burst past that dialled anew and closed on return.
const maxIdleConnsPerShard = 128

func (o Options) healthInterval() time.Duration {
	if o.HealthInterval > 0 {
		return o.HealthInterval
	}
	return time.Second
}

// Result is a merged scatter-gather answer: the Eq. (3) ranking of the
// merged matches, whose experts are all members of Pool, the candidate
// pool the topology bootstrapped. Degraded reports whether any shard
// was dropped from the query — the ranking then covers only the
// surviving shards' document slices.
type Result struct {
	Ranking     *core.Ranking
	Pool        *core.Pool
	ShardsDown  int
	ShardsTotal int
	Degraded    bool
}

// Coordinator fans queries out to the shard processes of a fixed
// topology and merges their replies into the single-process ranking.
// It holds no corpus: the candidate pool, which names its rankings, is
// bootstrapped from shard metadata. Safe for concurrent use.
type Coordinator struct {
	opts      Options
	transport *http.Transport
	clients   []*shardClient

	mu   sync.Mutex
	topo *core.Pool // the pool of the first valid shard meta

	healthMu sync.Mutex
	unready  map[int]bool // shards failing their last readiness probe
}

// New builds a coordinator over the topology in opts.Shards.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("scatter: no shard URLs configured")
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdleConnsPerShard
	tr.MaxIdleConns = maxIdleConnsPerShard * len(opts.Shards)
	c := &Coordinator{opts: opts, transport: tr, unready: make(map[int]bool)}
	hc := &http.Client{Transport: tr}
	for i, base := range opts.Shards {
		c.clients = append(c.clients, newShardClient(i, base, hc, opts))
	}
	return c, nil
}

// each runs fn once for every shard, concurrently, and returns when
// all calls have.
func (c *Coordinator) each(fn func(i int, cl *shardClient)) {
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, cl)
		}()
	}
	wg.Wait()
}

// Bootstrap fetches and validates shard metadata until the topology
// is known: every reachable shard must report its expected position
// and the topology size, a candidate list in strictly ascending id
// order that its fingerprint matches, and all fingerprints must agree.
// It needs
// only one reachable shard to learn the candidate pool; unreachable
// shards are validated lazily by the group echo on their first find
// reply. Idempotent and cheap once bootstrapped.
func (c *Coordinator) Bootstrap(ctx context.Context) error {
	c.mu.Lock()
	done := c.topo != nil
	c.mu.Unlock()
	if done {
		return nil
	}

	metas := make([]Meta, len(c.clients))
	errs := make([]error, len(c.clients))
	c.each(func(i int, cl *shardClient) { metas[i], errs[i] = cl.meta(ctx) })

	var topo *core.Pool
	for i, m := range metas {
		if errs[i] != nil {
			continue
		}
		if m.ShardID != i || m.ShardCount != len(c.clients) {
			return fmt.Errorf("scatter: shard at %s reports position %d/%d, expected %d/%d",
				c.clients[i].base, m.ShardID, m.ShardCount, i, len(c.clients))
		}
		pool, err := core.NewPool(m.Candidates)
		if err != nil {
			return fmt.Errorf("scatter: shard %d candidate list: %w", i, err)
		}
		if m.Group != pool.Group() {
			return fmt.Errorf("scatter: shard %d fingerprint %q does not match its candidate pool (%q)", i, m.Group, pool.Group())
		}
		if topo == nil {
			topo = pool
		} else if m.Group != topo.Group() {
			return fmt.Errorf("scatter: shard %d serves candidate pool %q, shards before it %q", i, m.Group, topo.Group())
		}
	}
	if topo == nil {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%w: %w", ErrNotBootstrapped, err)
			}
		}
		return ErrNotBootstrapped
	}

	c.mu.Lock()
	if c.topo == nil {
		c.topo = topo
	}
	c.mu.Unlock()
	return nil
}

// Find answers one expertise need over the shard topology. rawParams
// are the client's query parameters, forwarded verbatim so shards
// resolve exactly the options a single-process server would; p must
// be the coordinator-side resolution of the same parameters (it
// drives window truncation and Eq. (3) aggregation over the merge).
//
// Shards that fail either fan-out phase after the robustness stack is
// exhausted are dropped and the result is marked degraded; only a
// fully unreachable topology is an error. A shard that answers with a
// reply the coordinator cannot decode, or one that breaks the stats or
// merge contract, fails the find with a *MalformedError instead.
func (c *Coordinator) Find(ctx context.Context, need string, rawParams url.Values, p core.Params) (*Result, error) {
	if err := c.Bootstrap(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	topo := c.topo
	c.mu.Unlock()
	tr := telemetry.TraceFrom(ctx)

	// Phase 1: gather every shard's local document frequencies for the
	// need's dimensions; their sum is the global collection view.
	type reply struct {
		stats index.GlobalStats
		find  FindResponse
		err   error
	}
	replies := make([]reply, len(c.clients))
	gsp := tr.StartSpan("gather stats")
	c.each(func(i int, cl *shardClient) {
		sp := tr.StartChildSpan(gsp.ID(), "shard"+cl.label+" stats")
		r := &replies[i]
		r.stats, r.err = cl.stats(telemetry.ContextWithSpan(ctx, sp), need)
		if r.err != nil {
			sp.SetAttr("error", r.err.Error())
		}
		sp.End()
	})
	gsp.End()

	parts := make([]index.GlobalStats, 0, len(replies))
	for i, r := range replies {
		if err := malformed(r.err); err != nil {
			return nil, err
		}
		if r.err != nil {
			continue
		}
		if err := r.stats.Validate(); err != nil {
			return nil, &MalformedError{Shard: i, Err: fmt.Errorf("stats reply: %w", err)}
		}
		parts = append(parts, r.stats)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrNoShards, replies[0].err)
	}

	// Phase 2: ship the global view back with the query; each shard that
	// answered phase one scores its slice under it.
	req := FindRequest{Need: need, Params: map[string][]string(rawParams), Stats: index.SumStats(parts...)}
	fsp := tr.StartSpan("gather find")
	c.each(func(i int, cl *shardClient) {
		r := &replies[i]
		if r.err != nil {
			return
		}
		sp := tr.StartChildSpan(fsp.ID(), "shard"+cl.label+" find")
		r.find, r.err = cl.find(telemetry.ContextWithSpan(ctx, sp), req)
		if r.err != nil {
			sp.SetAttr("error", r.err.Error())
		} else {
			sp.SetAttr("matches", strconv.Itoa(len(r.find.Matches)))
		}
		sp.End()
	})
	fsp.End()

	lists := make([]mergeList, 0, len(replies))
	var firstErr error
	for i, r := range replies {
		if err := malformed(r.err); err != nil {
			return nil, err
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		ml, err := convertResponse(i, topo, r.find)
		if err != nil {
			return nil, err
		}
		lists = append(lists, ml)
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrNoShards, firstErr)
	}
	down := len(replies) - len(lists)

	msp := tr.StartSpan("merge")
	merged, err := Merge(lists)
	if err != nil {
		msp.SetAttr("error", err.Error())
		msp.End()
		return nil, err
	}
	// Under a match bound (the window, or a tighter top-k) every shard
	// ships its local top k of the reachable set; the global top k is a
	// prefix of their merge.
	if k := p.MatchBound(); k > 0 && len(merged) > k {
		merged = merged[:k]
	}
	ranked := core.RankMerged(merged, p)
	// Finite scores can still sum past the largest float64 in Eq. (3),
	// where a candidate's evidence from every shard meets; the overflow
	// is laid to the shard that sent the top match.
	if len(ranked) > 0 && math.IsInf(ranked[0].Score, 1) {
		top := slices.IndexFunc(lists, func(l mergeList) bool { return len(l.matches) > 0 && l.matches[0].Doc == merged[0].Doc })
		name, _ := topo.Name(ranked[0].User)
		err := &MalformedError{Shard: lists[top].shard, Err: fmt.Errorf("candidate %s: Eq. (3) total overflows", name)}
		msp.SetAttr("error", err.Error())
		msp.End()
		return nil, err
	}
	msp.SetAttr("lists", strconv.Itoa(len(lists)))
	msp.SetAttr("experts", strconv.Itoa(len(ranked)))
	msp.End()
	res := &Result{
		Ranking:     &core.Ranking{Scores: ranked},
		Pool:        topo, // convertResponse held every candidate to it
		ShardsDown:  down,
		ShardsTotal: len(c.clients),
		Degraded:    down > 0,
	}
	if res.Degraded {
		mDegradedQueries.Inc()
		tr.SetAttr("shards_down", strconv.Itoa(down))
		tr.Keep("degraded")
	}
	return res, nil
}

// malformed returns err when it reports a reply that reached the
// coordinator but could not be decoded — a shard that answered, wrongly,
// rather than one that is down — and nil otherwise.
func malformed(err error) error {
	var mal *MalformedError
	if errors.As(err, &mal) {
		return err
	}
	return nil
}

// Health reports the topology state from the most recent readiness
// probes: shards up, topology size, and whether bootstrap completed.
// Run keeps it fresh; Probe refreshes it on demand.
func (c *Coordinator) Health() (up, total int, bootstrapped bool) {
	c.healthMu.Lock()
	downN := len(c.unready)
	c.healthMu.Unlock()
	c.mu.Lock()
	bootstrapped = c.topo != nil
	c.mu.Unlock()
	return len(c.clients) - downN, len(c.clients), bootstrapped
}

// Probe checks every shard's readiness endpoint in parallel and
// updates the health state (and the shards-down gauge).
func (c *Coordinator) Probe(ctx context.Context) (up, total int) {
	results := make([]error, len(c.clients))
	c.each(func(i int, cl *shardClient) {
		results[i] = cl.ready(ctx)
		// A successful readiness probe is out-of-band evidence the
		// shard is back: close its breaker so the first real query
		// after recovery doesn't fail fast into degraded mode for a
		// residual cooldown (the breaker trips during the outage and
		// again while a restarted shard rebuilds its slice).
		if results[i] == nil && cl.breaker.Open() {
			cl.breaker.Success()
		}
	})

	c.healthMu.Lock()
	for i, err := range results {
		was := c.unready[i]
		if err != nil {
			c.unready[i] = true
		} else {
			delete(c.unready, i)
		}
		if c.opts.Logger != nil && was != (err != nil) {
			if err != nil {
				c.opts.Logger.Warn("shard down",
					"shard", i, "base", c.clients[i].base, "err", err.Error())
			} else {
				c.opts.Logger.Info("shard recovered",
					"shard", i, "base", c.clients[i].base)
			}
		}
	}
	downN := len(c.unready)
	c.healthMu.Unlock()
	mShardsDown.Set(float64(downN))
	return len(c.clients) - downN, len(c.clients)
}

// Run drives the background health loop until ctx is cancelled:
// bootstrap retries while the topology is unknown, then periodic
// readiness probes keeping Health and the shards-down gauge fresh. On
// return it closes the idle connections kept to the shards.
func (c *Coordinator) Run(ctx context.Context) {
	defer c.transport.CloseIdleConnections()
	tick := time.NewTicker(c.opts.healthInterval())
	defer tick.Stop()
	for {
		if err := c.Bootstrap(ctx); err != nil && c.opts.Logger != nil && !errors.Is(err, ErrNotBootstrapped) {
			c.opts.Logger.Warn("bootstrap failed", "err", err.Error())
		}
		c.Probe(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// ShardBases lists the configured shard base URLs in topology order.
func (c *Coordinator) ShardBases() []string {
	out := make([]string, len(c.clients))
	for i, cl := range c.clients {
		out[i] = cl.base
	}
	return out
}

// UnreadyShards lists the shard ids failing their most recent
// readiness probe, ascending.
func (c *Coordinator) UnreadyShards() []int {
	c.healthMu.Lock()
	out := make([]int, 0, len(c.unready))
	for i := range c.unready {
		out = append(out, i)
	}
	c.healthMu.Unlock()
	sort.Ints(out)
	return out
}
