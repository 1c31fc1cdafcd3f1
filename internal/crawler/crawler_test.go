package crawler

import (
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

func remote(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Config{Seed: 5, Scale: 0.05})
}

func TestFullAccessPreservesCandidateReach(t *testing.T) {
	ds := remote(t)
	crawled, stats := Crawl(ds.Graph, FullAccess)

	if stats.UsersDenied != 0 {
		t.Errorf("denied %d users under full access", stats.UsersDenied)
	}

	// The crawl reaches everything a candidate-rooted distance-2
	// traversal reaches: per-candidate hit counts must match.
	for _, u := range ds.Candidates {
		want := len(ds.Graph.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2}))
		got := len(crawled.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2}))
		if got != want {
			t.Errorf("candidate %d: crawled reach %d, remote reach %d", u, got, want)
		}
	}
}

func TestUserIDsPreserved(t *testing.T) {
	ds := remote(t)
	crawled, _ := Crawl(ds.Graph, FullAccess)
	if crawled.NumUsers() != ds.Graph.NumUsers() {
		t.Fatalf("user counts differ: %d vs %d", crawled.NumUsers(), ds.Graph.NumUsers())
	}
	for _, u := range ds.Graph.Users() {
		got := crawled.User(u.ID)
		if got.Name != u.Name || got.Candidate != u.Candidate {
			t.Fatalf("user %d differs: %+v vs %+v", u.ID, got, u)
		}
	}
}

func TestPrivacyDeniesNonCandidates(t *testing.T) {
	ds := remote(t)
	crawled, stats := Crawl(ds.Graph, Policy{ProfileAccessProb: 0, Seed: 1})

	if stats.UsersDenied == 0 {
		t.Fatal("nobody denied at access probability 0")
	}
	// Candidates are authorized regardless: their profiles exist.
	for _, u := range ds.Candidates {
		if _, ok := crawled.Profile(u, socialgraph.Facebook); !ok {
			t.Errorf("candidate %d lost their profile", u)
		}
	}
	// Reach shrinks: zero external access removes followed users'
	// content, so distance-2 hits must drop for some candidate.
	shrunk := false
	for _, u := range ds.Candidates {
		a := len(crawled.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2}))
		b := len(ds.Graph.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2}))
		if a < b {
			shrunk = true
		}
		if a > b {
			t.Fatalf("candidate %d gained reach under privacy: %d > %d", u, a, b)
		}
	}
	if !shrunk {
		t.Error("privacy had no effect on reach")
	}
}

func TestCrawlDeterministic(t *testing.T) {
	ds := remote(t)
	policy := Policy{ProfileAccessProb: 0.5, Seed: 9}
	a, sa := Crawl(ds.Graph, policy)
	b, sb := Crawl(ds.Graph, policy)
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	if a.NumResources() != b.NumResources() {
		t.Fatalf("resource counts differ: %d vs %d", a.NumResources(), b.NumResources())
	}
}

func TestPartialAccessInBetween(t *testing.T) {
	ds := remote(t)
	full, _ := Crawl(ds.Graph, FullAccess)
	half, _ := Crawl(ds.Graph, Policy{ProfileAccessProb: 0.5, Seed: 3})
	none, _ := Crawl(ds.Graph, Policy{ProfileAccessProb: 0, Seed: 3})

	reach := func(g *socialgraph.Graph) int {
		total := 0
		for _, u := range ds.Candidates {
			total += len(g.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2}))
		}
		return total
	}
	rf, rh, rn := reach(full), reach(half), reach(none)
	if !(rn < rh && rh < rf) {
		t.Errorf("reach not monotone in access: none=%d half=%d full=%d", rn, rh, rf)
	}
}

// groupGraph builds a candidate in a five-post group who follows a
// user with a four-post page, and owns one wall post.
func groupGraph() (g *socialgraph.Graph, group, page socialgraph.ContainerID, wall socialgraph.ResourceID) {
	g = socialgraph.New()
	u := g.AddUser("ada", true)
	v := g.AddUser("bob", false)
	g.Follows(u, v, socialgraph.Facebook)
	group = g.AddContainer(socialgraph.Facebook, socialgraph.ContainerGroup, u, "swimmers", "a group on swimming")
	g.RelatesTo(u, group)
	for _, text := range []string{"butterfly drills", "freestyle turns", "pool rules", "open water", "taper week"} {
		g.AddContainedResource(socialgraph.KindGroupPost, group, u, text)
	}
	page = g.AddContainer(socialgraph.Facebook, socialgraph.ContainerPage, v, "copper", "a page on metals")
	g.RelatesTo(v, page)
	for _, text := range []string{"conductivity", "alloys", "wiring", "corrosion"} {
		g.AddContainedResource(socialgraph.KindPagePost, page, v, text)
	}
	wall = g.AddResource(socialgraph.Facebook, socialgraph.KindPost, u, "wall post on lanes")
	g.Owns(u, wall)
	return g, group, page, wall
}

// feedTexts maps each container's name to the texts of its feed.
func feedTexts(g *socialgraph.Graph) map[string][]string {
	out := map[string][]string{}
	for i := 0; i < g.NumContainers(); i++ {
		c := g.Container(socialgraph.ContainerID(i))
		var texts []string
		for _, r := range g.ContainedResources(c.ID) {
			if !g.ResourceDeleted(r) {
				texts = append(texts, g.Resource(r).Text)
			}
		}
		out[c.Name] = texts
	}
	return out
}

func TestContainersCopiedWhole(t *testing.T) {
	g, _, _, _ := groupGraph()
	crawled, st := Crawl(g, FullAccess)
	want, got := feedTexts(g), feedTexts(crawled)
	if len(got) != len(want) {
		t.Fatalf("crawled containers %v, want %v", got, want)
	}
	for name, texts := range want {
		if !slices.Equal(got[name], texts) {
			t.Errorf("container %q holds %v, want %v", name, got[name], texts)
		}
	}
	if st.ResourcesCopied != 5+4+1 {
		t.Errorf("resources copied = %d, want 10", st.ResourcesCopied)
	}

	// At scale: every crawled container whose name is unique on both
	// sides holds as many posts as its remote counterpart.
	ds := remote(t)
	full, _ := Crawl(ds.Graph, FullAccess)
	count := func(g *socialgraph.Graph) map[string]int {
		n := map[string]int{}
		for name := range feedTexts(g) {
			n[name]++
		}
		return n
	}
	remoteFeeds, crawledFeeds := feedTexts(ds.Graph), feedTexts(full)
	remoteNames, crawledNames := count(ds.Graph), count(full)
	compared := 0
	for name, texts := range crawledFeeds {
		if remoteNames[name] != 1 || crawledNames[name] != 1 {
			continue
		}
		compared++
		if len(texts) != len(remoteFeeds[name]) {
			t.Errorf("container %q: crawled %d posts, remote %d", name, len(texts), len(remoteFeeds[name]))
		}
	}
	if compared == 0 {
		t.Error("no container compared")
	}
}

func TestDeletedResourcesNotCopied(t *testing.T) {
	g, group, _, wall := groupGraph()
	posts := g.ContainedResources(group)
	g.RemoveResource(posts[0])
	g.RemoveResource(posts[3])
	g.RemoveResource(wall)
	crawled, st := Crawl(g, FullAccess)
	if got, want := feedTexts(crawled)["swimmers"], []string{"freestyle turns", "pool rules", "taper week"}; !slices.Equal(got, want) {
		t.Errorf("group feed = %v, want %v", got, want)
	}
	for i := 0; i < crawled.NumResources(); i++ {
		switch text := crawled.Resource(socialgraph.ResourceID(i)).Text; text {
		case "butterfly drills", "open water", "wall post on lanes":
			t.Errorf("removed resource %q copied", text)
		}
	}
	if st.ResourcesCopied != 3+4 {
		t.Errorf("resources copied = %d, want 7", st.ResourcesCopied)
	}
}

// TestFaultFreeCallCount checks the call accounting of a crawl that
// meets no fault: one call per visited user and network, one per
// container, and nothing failed, retried or given up.
func TestFaultFreeCallCount(t *testing.T) {
	ds := remote(t)
	for _, policy := range []Policy{FullAccess, {ProfileAccessProb: 0.5, Seed: 3}} {
		crawled, st := Crawl(ds.Graph, policy)
		want := len(socialgraph.Networks)*st.UsersVisited + crawled.NumContainers()
		if st.APICalls != want {
			t.Errorf("policy %+v: %d calls, want %d (%d users × %d networks + %d containers)",
				policy, st.APICalls, want, st.UsersVisited, len(socialgraph.Networks), crawled.NumContainers())
		}
		if st.FailedCalls != 0 || st.Retries != 0 || st.GaveUp != 0 || st.BreakerTrips != 0 {
			t.Errorf("policy %+v: fault counters moved: %+v", policy, st)
		}
	}
}

// TestCrawlRecordsCounters checks that a crawl adds its Stats to the
// process-wide counters.
func TestCrawlRecordsCounters(t *testing.T) {
	ds := remote(t)
	reg := telemetry.Default()
	counters := map[string]func(Stats) int{
		"expertfind_crawler_api_calls_total":        func(s Stats) int { return s.APICalls },
		"expertfind_crawler_users_visited_total":    func(s Stats) int { return s.UsersVisited },
		"expertfind_crawler_users_denied_total":     func(s Stats) int { return s.UsersDenied },
		"expertfind_crawler_resources_copied_total": func(s Stats) int { return s.ResourcesCopied },
		"expertfind_crawler_failed_calls_total":     func(s Stats) int { return s.FailedCalls },
		"expertfind_crawler_retries_total":          func(s Stats) int { return s.Retries },
		"expertfind_crawler_gave_up_total":          func(s Stats) int { return s.GaveUp },
		"expertfind_crawler_breaker_trips_total":    func(s Stats) int { return s.BreakerTrips },
	}
	before := map[string]float64{}
	for name := range counters {
		before[name] = reg.Counter(name, "").Value()
	}
	_, st := CrawlAPI(faults.Wrap(ds.Graph, faultCfg()), Policy{ProfileAccessProb: 0.5, Seed: 4}, DefaultResilience)
	for name, field := range counters {
		if got, want := reg.Counter(name, "").Value()-before[name], float64(field(st)); got != want {
			t.Errorf("%s grew by %v, want %v", name, got, want)
		}
	}
	if st.APICalls == 0 || st.UsersDenied == 0 || st.Retries == 0 {
		t.Errorf("test premise broken: %+v", st)
	}
}
