// Package faults simulates the unreliable platform APIs behind the
// paper's Resource Extraction step (§2.3, Fig. 4). The real
// Facebook/Twitter/LinkedIn endpoints rate-limit, time out, and
// return transient errors; industrial-scale expert miners engineer
// around exactly that. This package wraps the remote
// socialgraph.Graph (the ground truth living on the platforms) behind
// an API interface whose calls can fail with deterministic, seeded
// faults: transient 5xx-style errors, 429-style rate-limit responses
// carrying a Retry-After hint, per-call service latency, and hard
// per-network outages.
//
// The crawler (internal/crawler) consumes this interface through the
// retry / rate-limit / circuit-breaker stack of internal/resilience,
// which turns "robustness to policy incompleteness" (§3.7) into the
// harder question the experiments chart: robustness to *transient*
// incompleteness.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
)

// Kind classifies an injected API failure.
type Kind uint8

// Failure kinds, ordered from most to least benign.
const (
	// Transient is a 5xx-style hiccup (gateway error, reset
	// connection): retryable immediately.
	Transient Kind = iota
	// RateLimited is a 429-style rejection carrying a Retry-After
	// hint: retryable after the hint.
	RateLimited
	// Unavailable is a hard per-network outage (platform down, API
	// revoked): not retryable.
	Unavailable
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case RateLimited:
		return "rate-limited"
	case Unavailable:
		return "unavailable"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// APIError is the error returned by failed platform calls. It
// implements the Retryable and RetryAfterHint classification the
// resilience package consumes.
type APIError struct {
	Kind    Kind
	Network socialgraph.Network
	// Hint is the server-supplied Retry-After for RateLimited errors.
	Hint time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("faults: %s API %s", e.Network, e.Kind)
}

// Retryable reports whether a retry can succeed: hard outages cannot.
func (e *APIError) Retryable() bool { return e.Kind != Unavailable }

// RetryAfterHint exposes the 429 Retry-After hint.
func (e *APIError) RetryAfterHint() (time.Duration, bool) {
	if e.Kind == RateLimited && e.Hint > 0 {
		return e.Hint, true
	}
	return 0, false
}

// Edge is a follow relationship as the relationship API reports it.
type Edge struct {
	To socialgraph.UserID
	// Mutual marks a reciprocated edge — a friendship in the paper's
	// meta-model (§2.2).
	Mutual bool
}

// UserView is the response of FetchUser: everything the platform
// returns about a user's presence on one network — profile, container
// memberships, and the owned/created/annotated streams, with full
// resource records (IDs are the remote graph's).
type UserView struct {
	Network    socialgraph.Network
	Profile    *socialgraph.Resource // nil when the user has no profile there
	Containers []socialgraph.ContainerID
	Owned      []socialgraph.Resource
	Created    []socialgraph.Resource
	Annotated  []socialgraph.Resource
}

// ContainerView is the response of FetchContainer: the container
// record, its description resource, and its whole live feed.
type ContainerView struct {
	Container socialgraph.Container
	Desc      socialgraph.Resource
	// Feed holds the container's live resources in chronological
	// order (most recent last).
	Feed []socialgraph.Resource
}

// ChangeView is the response of ChangedSince: the resources on one
// network whose records changed since a cursor, and the fetches that
// serve their current records. A live resource is served by its home
// owner's fetch: FetchUser of its creator for a profile and for a
// created or contained resource, FetchContainer for a container
// description. A removed one is absent from that same fetch.
type ChangeView struct {
	Network socialgraph.Network
	// Feed names the feed that issued Next: the remote graph's origin
	// (socialgraph.Graph.Origin), empty when it has none. A cursor
	// means something only on the feed that issued it, and cursor 1
	// is the source itself on every copy of it.
	Feed string
	// IDs are the changed resources on Network, sorted.
	IDs []socialgraph.ResourceID
	// Users and Containers are the home owners of IDs, sorted.
	Users      []socialgraph.UserID
	Containers []socialgraph.ContainerID
	// Next is the cursor for the following call.
	Next uint64
	// Expired reports that the feed cannot answer the cursor (zero,
	// unknown, or older than the feed's window): IDs and owners are
	// empty, and only a full fetch observes every change.
	Expired bool
}

// API is the remote platform surface as a crawling application sees
// it: a user directory (the application's own registration records,
// always available), cached public relationship lists, and per-call
// content fetches that can fail.
type API interface {
	// Users returns the user directory.
	Users() []socialgraph.User
	// Candidates returns the expert-candidate pool CE.
	Candidates() []socialgraph.UserID
	// Follows returns u's outgoing follow edges on net, flagging
	// mutual (friendship) edges. Relationship lists are public and
	// served from cache: no API call, no failures.
	Follows(u socialgraph.UserID, net socialgraph.Network) []Edge
	// FetchUser retrieves u's content on net. One API call; may fail.
	FetchUser(u socialgraph.UserID, net socialgraph.Network) (*UserView, error)
	// FetchContainer retrieves a container and every live entry of
	// its feed. One API call; may fail.
	FetchContainer(c socialgraph.ContainerID) (*ContainerView, error)
	// ChangedSince reports what changed on net since cursor (see
	// ChangeView). One API call; may fail.
	ChangedSince(net socialgraph.Network, cursor uint64) (*ChangeView, error)
}

// Config sets the injected fault mix. The zero value injects nothing:
// Wrap(g, Config{}) is a perfectly reliable API.
type Config struct {
	// Seed drives the per-call fault draws, making every failure
	// sequence reproducible.
	Seed int64
	// TransientRate is the probability that a call fails with a
	// Transient error.
	TransientRate float64
	// RateLimitRate is the probability that a call fails RateLimited.
	// TransientRate + RateLimitRate must be ≤ 1.
	RateLimitRate float64
	// RetryAfter is the hint attached to RateLimited errors; zero
	// defaults to 50ms.
	RetryAfter time.Duration
	// Latency is the simulated per-call service time, charged to the
	// clock on every call (failures included).
	Latency time.Duration
	// Outages lists networks that are hard down: every call against
	// them fails Unavailable.
	Outages []socialgraph.Network
	// Clock receives the injected latency; nil means a private
	// virtual clock (latency is then only visible in Stats).
	Clock *resilience.Clock
}

// Stats counts what the injector did, for reporting.
type Stats struct {
	Calls          int
	Transients     int
	RateLimits     int
	OutageFailures int
	Latency        time.Duration // total injected service time
}

// Gate is the graph-free injection core: it charges calls against a
// seeded fault mix and decides their fate, nothing more. Injector
// routes every platform call through one; other call paths (the load
// harness's chaos mode, for instance) can gate arbitrary operations
// through their own. All methods are safe for concurrent use; draws
// are serialized, so single-threaded call sequences are deterministic.
type Gate struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	down  map[socialgraph.Network]bool
	stats Stats
}

// NewGate returns a gate drawing from the configured fault mix.
func NewGate(cfg Config) *Gate {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.NewClock()
	}
	g := &Gate{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed + 1)),
		down: make(map[socialgraph.Network]bool, len(cfg.Outages)),
	}
	for _, net := range cfg.Outages {
		g.down[net] = true
	}
	return g
}

// Stats returns a snapshot of the gate's counters.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Call charges one call against net and decides its fate. A single
// uniform draw selects the failure class, so each call consumes
// exactly one random number regardless of the configuration. net is a
// free-form label for callers outside the platform simulation — it
// only has to match the Outages entries they configured.
func (g *Gate) Call(net socialgraph.Network) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stats.Calls++
	if g.cfg.Latency > 0 {
		g.stats.Latency += g.cfg.Latency
		g.cfg.Clock.Sleep(g.cfg.Latency)
	}
	if g.down[net] {
		g.stats.OutageFailures++
		return &APIError{Kind: Unavailable, Network: net}
	}
	if g.cfg.TransientRate <= 0 && g.cfg.RateLimitRate <= 0 {
		return nil
	}
	draw := g.rng.Float64()
	if draw < g.cfg.TransientRate {
		g.stats.Transients++
		return &APIError{Kind: Transient, Network: net}
	}
	if draw < g.cfg.TransientRate+g.cfg.RateLimitRate {
		g.stats.RateLimits++
		return &APIError{Kind: RateLimited, Network: net, Hint: g.cfg.RetryAfter}
	}
	return nil
}

// Injector implements API over a socialgraph.Graph, gating every
// platform call through a Gate over the configured fault mix.
type Injector struct {
	g    *socialgraph.Graph
	gate *Gate
}

// Wrap returns a fault-injecting API over g.
func Wrap(g *socialgraph.Graph, cfg Config) *Injector {
	return &Injector{g: g, gate: NewGate(cfg)}
}

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats { return in.gate.Stats() }

// call charges one API call against net and decides its fate.
func (in *Injector) call(net socialgraph.Network) error {
	return in.gate.Call(net)
}

// Users implements API.
func (in *Injector) Users() []socialgraph.User { return in.g.Users() }

// Candidates implements API.
func (in *Injector) Candidates() []socialgraph.UserID { return in.g.Candidates() }

// Follows implements API.
func (in *Injector) Follows(u socialgraph.UserID, net socialgraph.Network) []Edge {
	followed := in.g.Followed(u, net, true)
	out := make([]Edge, 0, len(followed))
	for _, v := range followed {
		out = append(out, Edge{To: v, Mutual: in.g.FollowsEdge(v, u, net)})
	}
	return out
}

// FetchUser implements API.
func (in *Injector) FetchUser(u socialgraph.UserID, net socialgraph.Network) (*UserView, error) {
	if err := in.call(net); err != nil {
		return nil, err
	}
	view := &UserView{Network: net}
	if rid, ok := in.g.Profile(u, net); ok {
		r := in.g.Resource(rid)
		view.Profile = &r
	}
	for _, cid := range in.g.RelatedContainers(u) {
		if in.g.Container(cid).Network == net {
			view.Containers = append(view.Containers, cid)
		}
	}
	view.Owned = in.streamOn(in.g.OwnedBy(u), net)
	view.Created = in.streamOn(in.g.CreatedBy(u), net)
	view.Annotated = in.streamOn(in.g.AnnotatedBy(u), net)
	return view, nil
}

// streamOn resolves the resource records of ids that live on net.
// Tombstoned resources are omitted — a deleted post disappears from
// the platform's responses, which is how a re-crawling ingester
// detects the deletion.
func (in *Injector) streamOn(ids []socialgraph.ResourceID, net socialgraph.Network) []socialgraph.Resource {
	var out []socialgraph.Resource
	for _, rid := range ids {
		if in.g.ResourceDeleted(rid) {
			continue
		}
		if r := in.g.Resource(rid); r.Network == net {
			out = append(out, r)
		}
	}
	return out
}

// FetchContainer implements API.
func (in *Injector) FetchContainer(c socialgraph.ContainerID) (*ContainerView, error) {
	cont := in.g.Container(c)
	if err := in.call(cont.Network); err != nil {
		return nil, err
	}
	view := &ContainerView{Container: cont, Desc: in.g.Resource(cont.Desc)}
	for _, rid := range in.g.ContainedResources(c) {
		if !in.g.ResourceDeleted(rid) {
			view.Feed = append(view.Feed, in.g.Resource(rid))
		}
	}
	return view, nil
}

// ChangedSince implements API over the remote graph's change journal.
func (in *Injector) ChangedSince(net socialgraph.Network, cursor uint64) (*ChangeView, error) {
	if err := in.call(net); err != nil {
		return nil, err
	}
	ids, next, ok := in.g.ChangedSince(cursor)
	feed, _ := in.g.Origin()
	view := &ChangeView{Network: net, Feed: feed, Next: next, Expired: !ok}
	var descs []socialgraph.ResourceID
	for _, id := range ids {
		r := in.g.Resource(id)
		switch {
		case r.Network != net:
		case r.Kind == socialgraph.KindContainerDesc:
			view.IDs = append(view.IDs, id)
			descs = append(descs, id)
		default:
			view.IDs = append(view.IDs, id)
			view.Users = append(view.Users, r.Creator)
		}
	}
	slices.Sort(view.Users)
	view.Users = slices.Compact(view.Users)
	// A description's record does not name its container: find each by
	// scanning the containers, which only a round that touched a
	// description pays.
	for c := 0; len(view.Containers) < len(descs) && c < in.g.NumContainers(); c++ {
		cont := in.g.Container(socialgraph.ContainerID(c))
		if _, found := slices.BinarySearch(descs, cont.Desc); found {
			view.Containers = append(view.Containers, cont.ID)
		}
	}
	return view, nil
}
