package faults

import (
	"errors"
	"slices"
	"testing"
	"time"

	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
)

// tinyGraph builds one candidate with a profile, a followed user, and
// a group with three posts.
func tinyGraph() (*socialgraph.Graph, socialgraph.UserID, socialgraph.ContainerID) {
	g := socialgraph.New()
	u := g.AddUser("ada", true)
	v := g.AddUser("bob", false)
	g.SetProfile(u, socialgraph.Facebook, "graph theory and optimization")
	g.Follows(u, v, socialgraph.Twitter)
	cid := g.AddContainer(socialgraph.Facebook, socialgraph.ContainerGroup, u, "algorithms", "algorithm talk")
	for i := 0; i < 3; i++ {
		g.AddContainedResource(socialgraph.KindGroupPost, cid, u, "post about sorting")
	}
	g.RelatesTo(u, cid)
	return g, u, cid
}

func TestZeroConfigNeverFails(t *testing.T) {
	g, u, cid := tinyGraph()
	api := Wrap(g, Config{})
	for i := 0; i < 50; i++ {
		if _, err := api.FetchUser(u, socialgraph.Facebook); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	view, err := api.FetchContainer(cid)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Feed) != 3 {
		t.Errorf("feed = %d, want 3", len(view.Feed))
	}
}

func TestFetchUserView(t *testing.T) {
	g, u, cid := tinyGraph()
	api := Wrap(g, Config{})
	fb, err := api.FetchUser(u, socialgraph.Facebook)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Profile == nil || fb.Profile.Text == "" {
		t.Error("facebook profile missing")
	}
	if len(fb.Containers) != 1 || fb.Containers[0] != cid {
		t.Errorf("containers = %v", fb.Containers)
	}
	// Created stream carries the group posts (same network).
	if len(fb.Created) == 0 {
		t.Error("created stream empty")
	}
	tw, err := api.FetchUser(u, socialgraph.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Profile != nil || len(tw.Containers) != 0 {
		t.Errorf("twitter view leaked facebook data: %+v", tw)
	}
}

func TestFollowsReportsMutuality(t *testing.T) {
	g := socialgraph.New()
	a := g.AddUser("a", true)
	b := g.AddUser("b", false)
	c := g.AddUser("c", false)
	g.Befriend(a, b, socialgraph.Facebook)
	g.Follows(a, c, socialgraph.Twitter)
	api := Wrap(g, Config{})
	fb := api.Follows(a, socialgraph.Facebook)
	if len(fb) != 1 || fb[0].To != b || !fb[0].Mutual {
		t.Errorf("facebook edges = %+v", fb)
	}
	tw := api.Follows(a, socialgraph.Twitter)
	if len(tw) != 1 || tw[0].To != c || tw[0].Mutual {
		t.Errorf("twitter edges = %+v", tw)
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	g, u, _ := tinyGraph()
	seq := func() []bool {
		api := Wrap(g, Config{Seed: 3, TransientRate: 0.3, RateLimitRate: 0.2})
		var out []bool
		for i := 0; i < 40; i++ {
			_, err := api.FetchUser(u, socialgraph.Facebook)
			out = append(out, err == nil)
		}
		return out
	}
	a, b := seq(), seq()
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at call %d", i)
		}
		if !a[i] {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no faults injected at 50% combined rate")
	}
}

func TestFaultClassification(t *testing.T) {
	g, u, cid := tinyGraph()
	api := Wrap(g, Config{Seed: 1, TransientRate: 0.5, RateLimitRate: 0.5, RetryAfter: 123 * time.Millisecond})
	sawTransient, sawRateLimit := false, false
	for i := 0; i < 60 && !(sawTransient && sawRateLimit); i++ {
		_, err := api.FetchUser(u, socialgraph.Facebook)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("call %d: error %v is not an APIError", i, err)
		}
		switch apiErr.Kind {
		case Transient:
			sawTransient = true
			if !resilience.Retryable(err) {
				t.Error("transient not retryable")
			}
			if _, ok := resilience.RetryAfter(err); ok {
				t.Error("transient carries a retry-after hint")
			}
		case RateLimited:
			sawRateLimit = true
			hint, ok := resilience.RetryAfter(err)
			if !ok || hint != 123*time.Millisecond {
				t.Errorf("hint = %v/%v", hint, ok)
			}
		}
	}
	if !sawTransient || !sawRateLimit {
		t.Errorf("fault mix incomplete: transient=%v ratelimit=%v", sawTransient, sawRateLimit)
	}
	st := api.Stats()
	if st.Calls == 0 || st.Transients == 0 || st.RateLimits == 0 {
		t.Errorf("stats = %+v", st)
	}
	_ = cid
}

func TestOutageIsPermanentPerNetwork(t *testing.T) {
	g, u, cid := tinyGraph()
	api := Wrap(g, Config{Outages: []socialgraph.Network{socialgraph.Facebook}})
	if _, err := api.FetchUser(u, socialgraph.Facebook); err == nil {
		t.Fatal("facebook call succeeded during outage")
	} else if resilience.Retryable(err) {
		t.Error("outage error classified retryable")
	}
	if _, err := api.FetchContainer(cid); err == nil {
		t.Fatal("container call succeeded during its network's outage")
	}
	if _, err := api.FetchUser(u, socialgraph.Twitter); err != nil {
		t.Errorf("twitter call failed outside the outage: %v", err)
	}
	if api.Stats().OutageFailures != 2 {
		t.Errorf("outage failures = %d, want 2", api.Stats().OutageFailures)
	}
}

func TestLatencyChargedToClock(t *testing.T) {
	g, u, _ := tinyGraph()
	clock := resilience.NewClock()
	api := Wrap(g, Config{Latency: 5 * time.Millisecond, Clock: clock})
	for i := 0; i < 4; i++ {
		if _, err := api.FetchUser(u, socialgraph.Facebook); err != nil {
			t.Fatal(err)
		}
	}
	if got := clock.Now().Sub(time.Time{}); got != 20*time.Millisecond {
		t.Errorf("clock advanced %v, want 20ms", got)
	}
	if api.Stats().Latency != 20*time.Millisecond {
		t.Errorf("stats latency = %v", api.Stats().Latency)
	}
}

// TestFetchContainerWholeFeed checks that a container fetch returns the
// container, its description and every live post in posting order,
// with tombstoned posts left out, for one call.
func TestFetchContainerWholeFeed(t *testing.T) {
	g, _, cid := tinyGraph()
	api := Wrap(g, Config{})
	posts := g.ContainedResources(cid)
	view, err := api.FetchContainer(cid)
	if err != nil {
		t.Fatal(err)
	}
	if view.Container.Name != "algorithms" || view.Desc.Text != "algorithm talk" {
		t.Errorf("container = %+v, desc %q", view.Container, view.Desc.Text)
	}
	ids := func(feed []socialgraph.Resource) []socialgraph.ResourceID {
		var out []socialgraph.ResourceID
		for _, r := range feed {
			out = append(out, r.ID)
		}
		return out
	}
	if got := ids(view.Feed); !slices.Equal(got, posts) {
		t.Errorf("feed = %v, want %v", got, posts)
	}
	g.RemoveResource(posts[1])
	view, err = api.FetchContainer(cid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(view.Feed), []socialgraph.ResourceID{posts[0], posts[2]}; !slices.Equal(got, want) {
		t.Errorf("feed after a removal = %v, want %v", got, want)
	}
	if st := api.Stats(); st.Calls != 2 {
		t.Errorf("calls = %d, want one per fetch", st.Calls)
	}
}

// TestGateStandalone exercises the graph-free injection core directly:
// a Gate must draw the same fault sequence as an Injector with the
// same seed, work without any graph, and honor outages for arbitrary
// call labels.
func TestGateStandalone(t *testing.T) {
	cfg := Config{Seed: 9, TransientRate: 0.3, RateLimitRate: 0.2}
	gate := NewGate(cfg)
	g, u, _ := tinyGraph()
	in := Wrap(g, cfg)

	const label = socialgraph.Network("loadgen")
	for i := 0; i < 200; i++ {
		gerr := gate.Call(label)
		_, ierr := in.FetchUser(u, socialgraph.Facebook)
		if (gerr == nil) != (ierr == nil) {
			t.Fatalf("call %d: gate err %v, injector err %v", i, gerr, ierr)
		}
		if gerr != nil {
			var ge, ie *APIError
			if !errors.As(gerr, &ge) || !errors.As(ierr, &ie) || ge.Kind != ie.Kind {
				t.Fatalf("call %d: gate %v vs injector %v", i, gerr, ierr)
			}
			if ge.Network != label {
				t.Fatalf("call %d: gate error network %q, want %q", i, ge.Network, label)
			}
		}
	}
	st := gate.Stats()
	if st.Calls != 200 || st.Transients == 0 || st.RateLimits == 0 {
		t.Fatalf("gate stats = %+v", st)
	}
}

func TestGateOutageAndLatency(t *testing.T) {
	clock := resilience.NewClock()
	const label = socialgraph.Network("chaos")
	gate := NewGate(Config{
		Seed:    1,
		Latency: 5 * time.Millisecond,
		Outages: []socialgraph.Network{label},
		Clock:   clock,
	})
	for i := 0; i < 4; i++ {
		err := gate.Call(label)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Kind != Unavailable {
			t.Fatalf("call %d: err = %v, want Unavailable", i, err)
		}
	}
	if err := gate.Call("other"); err != nil {
		t.Fatalf("non-outage label failed: %v", err)
	}
	if got := clock.Now().Sub(time.Time{}); got != 25*time.Millisecond {
		t.Fatalf("clock elapsed = %v, want 25ms", got)
	}
	if st := gate.Stats(); st.OutageFailures != 4 || st.Latency != 25*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChangedSince: the change feed is one gated call per network; it
// names a network's changed resources with their home owners — the
// creator, or a description's container — and reports a cursor it
// cannot answer as expired.
func TestChangedSince(t *testing.T) {
	g, u, cid := tinyGraph()
	api := Wrap(g, Config{Outages: []socialgraph.Network{socialgraph.LinkedIn}})
	first, err := api.ChangedSince(socialgraph.Facebook, 0)
	if err != nil || !first.Expired || first.Next == 0 || first.IDs != nil {
		t.Fatalf("zero cursor = %+v, %v; want expired with a next cursor", first, err)
	}

	v := g.AddUser("cy", false)
	tweet := g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, v, "a tweet")
	post := g.AddContainedResource(socialgraph.KindGroupPost, cid, v, "a post")
	desc := g.Container(cid).Desc
	g.SetResourceText(desc, "algorithm talk, renamed")
	prof, _ := g.Profile(u, socialgraph.Facebook)
	g.SetProfile(u, socialgraph.Facebook, "graph theory")

	fb, err := api.ChangedSince(socialgraph.Facebook, first.Next)
	if err != nil || fb.Expired {
		t.Fatalf("facebook feed = %+v, %v", fb, err)
	}
	if !slices.Equal(fb.IDs, []socialgraph.ResourceID{prof, desc, post}) ||
		!slices.Equal(fb.Users, []socialgraph.UserID{u, v}) ||
		!slices.Equal(fb.Containers, []socialgraph.ContainerID{cid}) || fb.Next != first.Next+4 {
		t.Errorf("facebook feed = %+v", fb)
	}
	tw, err := api.ChangedSince(socialgraph.Twitter, first.Next)
	if err != nil || !slices.Equal(tw.IDs, []socialgraph.ResourceID{tweet}) ||
		!slices.Equal(tw.Users, []socialgraph.UserID{v}) || tw.Containers != nil {
		t.Errorf("twitter feed = %+v, %v", tw, err)
	}
	if _, err := api.ChangedSince(socialgraph.LinkedIn, first.Next); err == nil {
		t.Error("the feed answered during its network's outage")
	}
	if st := api.Stats(); st.Calls != 4 || st.OutageFailures != 1 {
		t.Errorf("stats = %+v, want 4 calls, 1 outage failure", st)
	}
}
