// Package crawler models the Resource Extraction step of the analysis
// flow (paper §2.3, Fig. 4): collecting social data through the
// platforms' APIs, subject to the real-world constraints the paper
// documents — user privacy settings (only 80 of the 13k Facebook
// friends allowed profile access, §3.3.3).
//
// The crawler extracts, from a remote platform API (internal/faults —
// the ground truth living on the platforms, possibly behind injected
// failures), the partial view an application with a given access
// policy would actually obtain. Evaluating the expert finder on
// crawls of decreasing completeness quantifies how robust the method
// is to the access limits every third-party application faces — the
// paper notes that platform owners, who see everything, are strictly
// better positioned (§3.7). CrawlAPI extends that question from
// *policy* incompleteness to *transient* incompleteness: flaky
// endpoints, rate limits and outages, crawled through a configurable
// retry / rate-limit / circuit-breaker stack (internal/resilience).
package crawler

import (
	"log/slog"
	"math/rand"
	"time"

	"expertfind/internal/faults"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Crawl metrics bridge the per-crawl Stats into the process-wide
// registry as cumulative counters (a long-lived service may crawl
// many times), plus live breaker-state gauges per network.
var (
	mAPICalls = telemetry.Default().Counter(
		"expertfind_crawler_api_calls_total",
		"Platform API call attempts, retries included.")
	mFailedCalls = telemetry.Default().Counter(
		"expertfind_crawler_failed_calls_total",
		"API call attempts that returned a platform error.")
	mRetries = telemetry.Default().Counter(
		"expertfind_crawler_retries_total",
		"Extra attempts spent re-trying failed calls.")
	mGaveUp = telemetry.Default().Counter(
		"expertfind_crawler_gave_up_total",
		"Fetches abandoned for good (retries exhausted, outage, open breaker).")
	mBreakerTrips = telemetry.Default().Counter(
		"expertfind_crawler_breaker_trips_total",
		"Circuit-breaker openings across networks.")
	mUsersVisited = telemetry.Default().Counter(
		"expertfind_crawler_users_visited_total",
		"Users whose data was at least partially retrieved.")
	mUsersDenied = telemetry.Default().Counter(
		"expertfind_crawler_users_denied_total",
		"Users skipped by privacy settings.")
	mResourcesCopied = telemetry.Default().Counter(
		"expertfind_crawler_resources_copied_total",
		"Resources copied into crawled graphs.")
	mWaitSeconds = telemetry.Default().CounterVec(
		"expertfind_crawler_wait_seconds_total",
		"Simulated seconds spent waiting, by cause.", "kind")
	mBreakerOpen = telemetry.Default().GaugeVec(
		"expertfind_crawler_breaker_open",
		"Whether the network's circuit breaker is currently open (1) or closed (0).",
		"network")
)

// record folds one crawl's Stats into the cumulative counters. Waits
// are bridged incrementally where the retryer backs off, so
// Stats.Waited is deliberately not re-counted here.
func (s Stats) record() {
	mAPICalls.Add(float64(s.APICalls))
	mFailedCalls.Add(float64(s.FailedCalls))
	mRetries.Add(float64(s.Retries))
	mGaveUp.Add(float64(s.GaveUp))
	mBreakerTrips.Add(float64(s.BreakerTrips))
	mUsersVisited.Add(float64(s.UsersVisited))
	mUsersDenied.Add(float64(s.UsersDenied))
	mResourcesCopied.Add(float64(s.ResourcesCopied))
}

// Policy captures the access constraints of a crawl.
type Policy struct {
	// ProfileAccessProb is the probability that a non-candidate
	// user's privacy settings allow reading their profile and
	// activities (the candidates granted authorization tokens, so
	// their own data is always accessible). The paper measured ≈0.6%
	// for Facebook friends; followed accounts are typically public.
	ProfileAccessProb float64
	// Seed drives the privacy draws and the retry jitter, making
	// crawls reproducible.
	Seed int64
}

// FullAccess is the policy of a platform owner: everything visible.
var FullAccess = Policy{ProfileAccessProb: 1}

// Resilience configures the fault-handling stack a crawl runs its API
// calls through. The zero value is a bare client: single attempts, no
// breaker — a call that fails is immediately given up.
type Resilience struct {
	// Retry is the per-call retry/backoff policy.
	Retry resilience.RetryPolicy
	// Breaker, when Threshold > 0, guards each network with a circuit
	// breaker so a hard outage stops burning calls.
	Breaker resilience.BreakerPolicy
	// Clock supplies backoff waits; nil means a private
	// virtual clock (the crawl simulates waiting instead of sleeping,
	// so heavily-faulted sweeps still run in milliseconds).
	Clock *resilience.Clock
	// Logger, when set, receives structured crawl events: breaker
	// transitions per network as they happen and a summary record when
	// the crawl finishes. Nil disables logging.
	Logger *slog.Logger
}

// DefaultResilience is the stack the commands enable with -retries:
// SDK-style backoff plus a 5-failure breaker with a 1s cooldown.
var DefaultResilience = Resilience{
	Retry:   resilience.DefaultRetry,
	Breaker: resilience.BreakerPolicy{Threshold: 5, Cooldown: time.Second},
}

// Stats reports what a crawl did.
type Stats struct {
	// APICalls counts call attempts, retries included: one call
	// retrieves one user's presence on one network (profile +
	// memberships + streams) or one container feed.
	APICalls        int
	UsersVisited    int
	UsersDenied     int
	ResourcesCopied int

	// FailedCalls counts call attempts that returned a platform
	// error (before any retry).
	FailedCalls int
	// Retries counts the extra attempts spent re-trying failed calls.
	Retries int
	// GaveUp counts fetches abandoned for good: retries exhausted,
	// hard outage, or an open circuit breaker.
	GaveUp int
	// BreakerTrips counts circuit-breaker openings across networks.
	BreakerTrips int
	// Waited is the simulated time spent backing off.
	Waited time.Duration
}

// Crawl extracts from remote the subgraph visible under policy
// through a perfectly reliable API — the historical entry point, now
// a convenience wrapper over CrawlAPI with a zero-fault client.
func Crawl(remote *socialgraph.Graph, policy Policy) (*socialgraph.Graph, Stats) {
	return CrawlAPI(faults.Wrap(remote, faults.Config{}), policy, Resilience{})
}

// CrawlAPI extracts the subgraph visible under policy from a platform
// API that may inject failures, running every call through the given
// resilience stack. The crawled graph mirrors the remote user table
// (same UserIDs), so ground truth defined on remote users applies
// unchanged; resource and container IDs are fresh.
func CrawlAPI(api faults.API, policy Policy, res Resilience) (*socialgraph.Graph, Stats) {
	clock := res.Clock
	if clock == nil {
		clock = resilience.NewClock()
	}
	c := &crawl{
		api:          api,
		policy:       policy,
		rng:          rand.New(rand.NewSource(policy.Seed + 1)),
		out:          socialgraph.New(),
		resourceMap:  make(map[socialgraph.ResourceID]socialgraph.ResourceID),
		containerMap: make(map[socialgraph.ContainerID]socialgraph.ContainerID),
		visited:      make(map[socialgraph.UserID]bool),
		views:        make(map[socialgraph.UserID][]*faults.UserView),
	}
	c.retryer = &resilience.Retryer{
		Policy: res.Retry,
		Clock:  clock,
		Rand:   rand.New(rand.NewSource(policy.Seed + 2)),
		OnRetry: func(_ int, _ error, delay time.Duration) {
			c.stats.Retries++
			c.stats.Waited += delay
			mWaitSeconds.With("backoff").Add(delay.Seconds())
		},
	}
	if res.Breaker.Threshold > 0 {
		c.breakers = make(map[socialgraph.Network]*resilience.Breaker)
		for _, net := range socialgraph.Networks {
			br := resilience.NewBreaker(res.Breaker, clock)
			g := mBreakerOpen.With(string(net))
			g.Set(0)
			br.OnStateChange = func(open bool) {
				if open {
					g.Set(1)
					if res.Logger != nil {
						res.Logger.Warn("crawler breaker opened", "network", string(net))
					}
				} else {
					g.Set(0)
					if res.Logger != nil {
						res.Logger.Info("crawler breaker closed", "network", string(net))
					}
				}
			}
			c.breakers[net] = br
		}
	}
	c.run()
	for _, br := range c.breakers {
		c.stats.BreakerTrips += br.Trips()
	}
	c.stats.record()
	if res.Logger != nil {
		res.Logger.Info("crawl finished",
			"api_calls", c.stats.APICalls,
			"failed_calls", c.stats.FailedCalls,
			"retries", c.stats.Retries,
			"gave_up", c.stats.GaveUp,
			"breaker_trips", c.stats.BreakerTrips,
			"users_visited", c.stats.UsersVisited,
			"users_denied", c.stats.UsersDenied,
			"resources_copied", c.stats.ResourcesCopied,
			"waited", c.stats.Waited.String())
	}
	return c.out, c.stats
}

type crawl struct {
	api     faults.API
	policy  Policy
	rng     *rand.Rand
	out     *socialgraph.Graph
	stats   Stats
	retryer *resilience.Retryer

	breakers map[socialgraph.Network]*resilience.Breaker

	resourceMap  map[socialgraph.ResourceID]socialgraph.ResourceID
	containerMap map[socialgraph.ContainerID]socialgraph.ContainerID
	visited      map[socialgraph.UserID]bool
	// views caches the fetched per-network user data so streams can be
	// copied after all container feeds are in (see run, phase 3).
	views map[socialgraph.UserID][]*faults.UserView
}

// fetch runs one API fetch against net through the breaker and retry
// stack, reporting whether it ultimately succeeded.
func (c *crawl) fetch(net socialgraph.Network, f func() error) bool {
	br := c.breakers[net]
	err := c.retryer.Do(func() error {
		if br != nil && !br.Allow() {
			return resilience.Permanent(resilience.ErrOpen)
		}
		c.stats.APICalls++
		err := f()
		if err != nil {
			c.stats.FailedCalls++
			br.Failure()
			return err
		}
		br.Success()
		return nil
	})
	if err == nil {
		return true
	}
	c.stats.GaveUp++
	return false
}

func (c *crawl) run() {
	for _, u := range c.api.Users() {
		c.out.AddUser(u.Name, u.Candidate)
	}
	candidates := c.api.Candidates()

	// Phase 1: visit the authorized candidates, then the users they
	// follow (friends included — whether the matching later uses
	// friend content is the traversal's decision; the crawler mirrors
	// the relationship structure it can see). Visiting retrieves the
	// per-network profiles, memberships and container feeds.
	var accessible []socialgraph.UserID
	for _, u := range candidates {
		if c.visitUser(u, true) {
			accessible = append(accessible, u)
		}
	}
	for _, u := range candidates {
		for _, net := range socialgraph.Networks {
			for _, e := range c.api.Follows(u, net) {
				c.out.Follows(u, e.To, net)
				if e.Mutual {
					c.out.Follows(e.To, u, net)
				}
				if c.visitUser(e.To, false) {
					accessible = append(accessible, e.To)
				}
			}
		}
	}
	// Phase 2: follow edges among visited non-candidates, so
	// distance-2 profile paths (followed-of-followed) survive.
	for v := range c.visited {
		for _, net := range socialgraph.Networks {
			for _, e := range c.api.Follows(v, net) {
				if c.visited[e.To] && !c.out.FollowsEdge(v, e.To, net) {
					c.out.Follows(v, e.To, net)
				}
			}
		}
	}
	// Phase 3: streams — owned, created and annotated resources of
	// every accessible user. This runs after all container feeds are
	// in, so stream items that also sit in a crawled feed reuse the
	// feed copy instead of duplicating.
	for _, u := range accessible {
		for _, view := range c.views[u] {
			for _, r := range view.Owned {
				c.out.Owns(u, c.mapOrCopy(r))
			}
			for _, r := range view.Created {
				c.mapOrCopy(r) // the creates edge is recorded by the copy
			}
			for _, r := range view.Annotated {
				c.out.Annotates(u, c.mapOrCopy(r))
			}
		}
	}
}

// visitUser performs the access check and retrieves the user's
// per-network profiles, container feeds and streams. It reports
// whether any of the user's data was retrieved.
func (c *crawl) visitUser(u socialgraph.UserID, authorized bool) bool {
	if c.visited[u] {
		return false // already handled (or denied) once
	}
	c.visited[u] = true
	if !authorized && c.rng.Float64() >= c.policy.ProfileAccessProb {
		c.stats.UsersDenied++
		return false
	}
	any := false
	for _, net := range socialgraph.Networks {
		var view *faults.UserView
		ok := c.fetch(net, func() error {
			v, err := c.api.FetchUser(u, net)
			if err == nil {
				view = v
			}
			return err
		})
		if !ok {
			continue // this network's data is lost, the others may not be
		}
		any = true
		if view.Profile != nil {
			c.out.SetProfile(u, net, view.Profile.Text, view.Profile.URLs...)
		}
		for _, cid := range view.Containers {
			if ncid, ok := c.crawlContainer(cid, net); ok {
				c.out.RelatesTo(u, ncid)
			}
		}
		c.views[u] = append(c.views[u], view)
	}
	if any {
		c.stats.UsersVisited++
	}
	return any
}

// mapOrCopy returns the crawled copy of a remote resource, cloning it
// on first use. A resource that lives in a container but was not part
// of a crawled feed is still retrievable individually (the API serves
// single posts), so it is copied standalone — its contains edge is
// simply not visible to the crawl.
func (c *crawl) mapOrCopy(r socialgraph.Resource) socialgraph.ResourceID {
	if nid, ok := c.resourceMap[r.ID]; ok {
		return nid
	}
	nid := c.out.AddResource(r.Network, r.Kind, r.Creator, r.Text, r.URLs...)
	c.resourceMap[r.ID] = nid
	c.stats.ResourcesCopied++
	return nid
}

// crawlContainer retrieves a container and its feed.
// A container whose fetch fails is not cached, so a later member may
// retry it.
func (c *crawl) crawlContainer(cid socialgraph.ContainerID, net socialgraph.Network) (socialgraph.ContainerID, bool) {
	if ncid, ok := c.containerMap[cid]; ok {
		return ncid, true
	}
	var view *faults.ContainerView
	ok := c.fetch(net, func() error {
		v, err := c.api.FetchContainer(cid)
		if err == nil {
			view = v
		}
		return err
	})
	if !ok {
		return -1, false
	}
	ncid := c.out.AddContainer(view.Container.Network, view.Container.Kind,
		view.Desc.Creator, view.Container.Name, view.Desc.Text)
	c.containerMap[cid] = ncid

	for _, r := range view.Feed {
		nid := c.out.AddContainedResource(r.Kind, ncid, r.Creator, r.Text, r.URLs...)
		c.resourceMap[r.ID] = nid
		c.stats.ResourcesCopied++
	}
	return ncid, true
}
