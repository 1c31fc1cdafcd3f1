package scatter

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
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
	// Hedge configures hedged second requests; see HedgePolicy.
	Hedge HedgePolicy
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

// Expert is one ranked expert of a merged result.
type Expert struct {
	Name                string
	Score               float64
	SupportingResources int
}

// Result is a merged scatter-gather answer. Degraded reports whether
// any shard was dropped from the query — the ranking then covers only
// the surviving shards' document slices.
type Result struct {
	Experts     []Expert
	ShardsDown  int
	ShardsTotal int
	Degraded    bool
}

// topology is the bootstrap state learned from shard metadata.
type topology struct {
	group string
	names map[socialgraph.UserID]string
}

// Coordinator fans queries out to the shard processes of a fixed
// topology and merges their replies into the single-process ranking.
// It holds no corpus: candidate names and the pool fingerprint are
// bootstrapped from shard metadata. Safe for concurrent use.
type Coordinator struct {
	opts      Options
	transport *http.Transport
	clients   []*shardClient

	mu   sync.Mutex
	topo *topology

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

// GroupFingerprint hashes a candidate pool into the fingerprint that
// identifies a topology: every shard of one deployment serves the
// same pool, so coordinator and shards can detect a process serving a
// different corpus without comparing the pool itself.
func GroupFingerprint(cands []Candidate) string {
	h := fnv.New64a()
	for _, cd := range cands {
		fmt.Fprintf(h, "%d=%s\n", cd.ID, cd.Name)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Bootstrap fetches and validates shard metadata until the topology
// is known: every reachable shard must report its expected position
// and the topology size, and all fingerprints must agree. It needs
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

	metas := make([]*Meta, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *shardClient) {
			defer wg.Done()
			m, err := cl.meta(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			metas[i] = &m
		}(i, cl)
	}
	wg.Wait()

	var topo *topology
	for i, m := range metas {
		if m == nil {
			continue
		}
		if m.ShardID != i || m.ShardCount != len(c.clients) {
			return fmt.Errorf("scatter: shard at %s reports position %d/%d, expected %d/%d",
				c.clients[i].base, m.ShardID, m.ShardCount, i, len(c.clients))
		}
		fp := GroupFingerprint(m.Candidates)
		if m.Group != fp {
			return fmt.Errorf("scatter: shard %d fingerprint %q does not match its candidate pool (%q)", i, m.Group, fp)
		}
		if topo == nil {
			topo = &topology{group: m.Group, names: make(map[socialgraph.UserID]string, len(m.Candidates))}
			for _, cd := range m.Candidates {
				topo.names[socialgraph.UserID(cd.ID)] = cd.Name
			}
		} else if m.Group != topo.group {
			return fmt.Errorf("scatter: shard %d serves candidate pool %q, shards before it %q", i, m.Group, topo.group)
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
// fully unreachable topology is an error.
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
	gsp := tr.StartSpan("gather stats")
	type statsReply struct {
		stats Stats
		err   error
	}
	stats := make([]statsReply, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *shardClient) {
			defer wg.Done()
			sp := tr.StartChildSpan(gsp.ID(), "shard"+cl.label+" stats")
			s, err := cl.stats(telemetry.ContextWithSpan(ctx, sp), need)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			stats[i] = statsReply{stats: s, err: err}
		}(i, cl)
	}
	wg.Wait()
	gsp.End()

	live := make([]int, 0, len(c.clients))
	parts := make([]Stats, 0, len(c.clients))
	for i, r := range stats {
		if r.err == nil {
			live = append(live, i)
			parts = append(parts, r.stats)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrNoShards, firstError(stats, func(r statsReply) error { return r.err }))
	}
	global := SumStats(parts...)
	wire := Stats{Docs: global.Docs, Terms: global.TermDF, Entities: global.EntityDF}

	// Phase 2: ship the global view back with the query; each surviving
	// shard scores its slice under it.
	fsp := tr.StartSpan("gather find")
	req := FindRequest{Need: need, Params: map[string][]string(rawParams), Stats: wire}
	type findReply struct {
		resp FindResponse
		err  error
	}
	finds := make([]findReply, len(live))
	for j, i := range live {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			cl := c.clients[i]
			sp := tr.StartChildSpan(fsp.ID(), "shard"+cl.label+" find")
			resp, err := cl.find(telemetry.ContextWithSpan(ctx, sp), req)
			if err != nil {
				sp.SetAttr("error", err.Error())
			} else {
				sp.SetAttr("matches", strconv.Itoa(len(resp.Matches)))
			}
			sp.End()
			finds[j] = findReply{resp: resp, err: err}
		}(j, i)
	}
	wg.Wait()
	fsp.End()

	lists := make([]mergeList, 0, len(live))
	down := len(c.clients) - len(live)
	for j, i := range live {
		if finds[j].err != nil {
			down++
			continue
		}
		ml, err := convertResponse(i, topo.group, finds[j].resp)
		if err != nil {
			return nil, err
		}
		lists = append(lists, ml)
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrNoShards, firstError(finds, func(r findReply) error { return r.err }))
	}

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
	msp.SetAttr("lists", strconv.Itoa(len(lists)))
	msp.SetAttr("experts", strconv.Itoa(len(ranked)))
	msp.End()
	res := &Result{
		Experts:     make([]Expert, len(ranked)),
		ShardsDown:  down,
		ShardsTotal: len(c.clients),
		Degraded:    down > 0,
	}
	for i, es := range ranked {
		name, ok := topo.names[es.User]
		if !ok {
			// A shard voted for a user outside the bootstrapped pool:
			// the topology is inconsistent, not merely degraded.
			return nil, &MalformedError{Err: fmt.Errorf("candidate %d not in bootstrapped pool", es.User)}
		}
		res.Experts[i] = Expert{Name: name, Score: es.Score, SupportingResources: es.Resources}
	}
	if res.Degraded {
		mDegradedQueries.Inc()
		tr.SetAttr("shards_down", strconv.Itoa(down))
		tr.Keep("degraded")
	}
	return res, nil
}

// firstError returns the first non-nil error of a reply slice.
func firstError[T any](rs []T, get func(T) error) error {
	for _, r := range rs {
		if err := get(r); err != nil {
			return err
		}
	}
	return errors.New("no shards")
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
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *shardClient) {
			defer wg.Done()
			results[i] = cl.ready(ctx)
			// A successful readiness probe is out-of-band evidence the
			// shard is back: close its breaker so the first real query
			// after recovery doesn't fail fast into degraded mode for a
			// residual cooldown (the breaker trips during the outage and
			// again while a restarted shard rebuilds its slice).
			if results[i] == nil && cl.breaker.Open() {
				cl.breaker.Success()
			}
		}(i, cl)
	}
	wg.Wait()

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
