package socialgraph

import (
	"slices"
	"testing"
)

// buildPaperExample reproduces the Facebook example of Fig. 3a plus a
// Twitter follow structure like Fig. 3b.
//
// Facebook: Alice and Bob are friends. Alice creates p1 (owned by
// her), creates p2 on Bob's wall (owned by Bob), likes p3 created and
// owned by Bob. Alice belongs to a group containing posts g1, g2
// created by Charlie.
//
// Twitter: Alice follows Charlie (unidirectional); Alice and Bob
// mutually follow (friends). Charlie owns tweets t1, t2; Bob owns t3;
// Alice favourites t3; Charlie follows Dave who has a profile.
type fixture struct {
	g                       *Graph
	alice, bob, charlie     UserID
	dave                    UserID
	p1, p2, p3, g1, g2      ResourceID
	t1, t2, t3              ResourceID
	aliceFBProf, bobFBProf  ResourceID
	aliceTWProf, charTWProf ResourceID
	daveTWProf              ResourceID
	groupDesc               ResourceID
	group                   ContainerID
}

func buildPaperExample() *fixture {
	f := &fixture{g: New()}
	g := f.g
	f.alice = g.AddUser("Alice", true)
	f.bob = g.AddUser("Bob", true)
	f.charlie = g.AddUser("Charlie", false)
	f.dave = g.AddUser("Dave", false)

	// Facebook
	f.aliceFBProf = g.SetProfile(f.alice, Facebook, "hobby swimming")
	f.bobFBProf = g.SetProfile(f.bob, Facebook, "hobby football")
	g.Befriend(f.alice, f.bob, Facebook)
	f.p1 = g.AddResource(Facebook, KindPost, f.alice, "post at 09.00 by alice")
	g.Owns(f.alice, f.p1)
	f.p2 = g.AddResource(Facebook, KindPost, f.alice, "post at 09.05 by alice on bob wall")
	g.Owns(f.bob, f.p2)
	f.p3 = g.AddResource(Facebook, KindPost, f.bob, "post at 09.10 by bob")
	g.Owns(f.bob, f.p3)
	g.Annotates(f.alice, f.p3) // like
	f.group = g.AddContainer(Facebook, ContainerGroup, f.charlie, "Swimming Club", "a group about swimming")
	f.groupDesc = g.Container(f.group).Desc
	g.RelatesTo(f.alice, f.group)
	f.g1 = g.AddContainedResource(KindGroupPost, f.group, f.charlie, "group post at 08.00")
	f.g2 = g.AddContainedResource(KindGroupPost, f.group, f.charlie, "group post at 08.05")

	// Twitter
	f.aliceTWProf = g.SetProfile(f.alice, Twitter, "i tweet about swimming")
	g.SetProfile(f.bob, Twitter, "bob on twitter")
	f.charTWProf = g.SetProfile(f.charlie, Twitter, "coach at the pool")
	f.daveTWProf = g.SetProfile(f.dave, Twitter, "swimming journalist")
	g.Follows(f.alice, f.charlie, Twitter) // followed user
	g.Befriend(f.alice, f.bob, Twitter)    // mutual: friends
	f.t1 = g.AddResource(Twitter, KindTweet, f.charlie, "tweet at 10.00")
	g.Owns(f.charlie, f.t1)
	f.t2 = g.AddResource(Twitter, KindTweet, f.charlie, "tweet at 10.10")
	g.Owns(f.charlie, f.t2)
	f.t3 = g.AddResource(Twitter, KindTweet, f.bob, "tweet at 10.20")
	g.Owns(f.bob, f.t3)
	g.Annotates(f.alice, f.t3) // favourite
	g.Follows(f.charlie, f.dave, Twitter)
	return f
}

func hitMap(hits []Hit) map[ResourceID]int {
	m := make(map[ResourceID]int, len(hits))
	for _, h := range hits {
		m[h.Resource] = h.Distance
	}
	return m
}

func TestDistanceZeroProfilesOnly(t *testing.T) {
	f := buildPaperExample()
	hits := f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 0})
	m := hitMap(hits)
	if len(m) != 2 {
		t.Fatalf("got %d hits %v, want 2 profiles", len(m), m)
	}
	if m[f.aliceFBProf] != 0 || m[f.aliceTWProf] != 0 {
		t.Errorf("profiles not at distance 0: %v", m)
	}
}

func TestDistanceOnePaths(t *testing.T) {
	f := buildPaperExample()
	m := hitMap(f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 1}))

	wantAt1 := map[ResourceID]string{
		f.p1:         "created+owned post",
		f.p2:         "created post on bob's wall",
		f.p3:         "annotated (liked) post",
		f.groupDesc:  "description of related container",
		f.charTWProf: "profile of followed user",
		f.t3:         "favourited tweet",
	}
	for r, why := range wantAt1 {
		if d, ok := m[r]; !ok || d != 1 {
			t.Errorf("%s (res %d): distance %d (present=%v), want 1", why, r, d, ok)
		}
	}
	// Friend-only reachable content must be absent.
	if _, ok := m[f.bobFBProf]; ok {
		t.Error("friend Bob's profile reached without IncludeFriends")
	}
	// Distance-2 content must be absent at MaxDistance 1.
	if _, ok := m[f.g1]; ok {
		t.Error("group post reached at MaxDistance 1")
	}
	if _, ok := m[f.t1]; ok {
		t.Error("followed user's tweet reached at MaxDistance 1")
	}
}

func TestDistanceTwoPaths(t *testing.T) {
	f := buildPaperExample()
	m := hitMap(f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 2}))

	wantAt2 := map[ResourceID]string{
		f.g1:         "post contained in related group",
		f.g2:         "post contained in related group",
		f.t1:         "tweet owned by followed user",
		f.t2:         "tweet owned by followed user",
		f.daveTWProf: "profile of followed-of-followed user",
	}
	for r, why := range wantAt2 {
		if d, ok := m[r]; !ok || d != 2 {
			t.Errorf("%s (res %d): distance %d (present=%v), want 2", why, r, d, ok)
		}
	}
	// Distance-1 resources keep their minimal distance.
	if m[f.p1] != 1 || m[f.t3] != 1 {
		t.Errorf("distance-1 resources re-ranked: p1=%d t3=%d", m[f.p1], m[f.t3])
	}
}

func TestIncludeFriends(t *testing.T) {
	f := buildPaperExample()
	// Without friends, Bob's Twitter profile is unreachable from Alice.
	m := hitMap(f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 2}))
	if _, ok := m[f.g.mustProfile(f.bob, Twitter)]; ok {
		t.Error("friend profile reachable without IncludeFriends")
	}
	m = hitMap(f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 2, IncludeFriends: true}))
	if d := m[f.g.mustProfile(f.bob, Twitter)]; d != 1 {
		t.Errorf("friend profile at distance %d with IncludeFriends, want 1", d)
	}
	// Friend's owned tweet now reachable at distance 2 (it was already
	// at 1 via the annotation; check min-dedup keeps 1).
	if d := m[f.t3]; d != 1 {
		t.Errorf("annotated tweet at distance %d, want 1 (min dedup)", d)
	}
}

func TestNetworkFilter(t *testing.T) {
	f := buildPaperExample()
	m := hitMap(f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 2, Networks: []Network{Twitter}}))
	for r := range m {
		if net := f.g.Resource(r).Network; net != Twitter {
			t.Errorf("resource %d from %s leaked through Twitter filter", r, net)
		}
	}
	if _, ok := m[f.aliceTWProf]; !ok {
		t.Error("twitter profile missing")
	}
	if _, ok := m[f.p1]; ok {
		t.Error("facebook post leaked")
	}
}

func TestHitsSorted(t *testing.T) {
	f := buildPaperExample()
	hits := f.g.ResourcesWithin(f.alice, TraversalOptions{MaxDistance: 2})
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.Resource >= b.Resource) {
			t.Fatalf("hits not sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestIsFriendAndFollowsEdge(t *testing.T) {
	f := buildPaperExample()
	g := f.g
	if !g.IsFriend(f.alice, f.bob, Twitter) || !g.IsFriend(f.bob, f.alice, Twitter) {
		t.Error("mutual follows not detected as friendship")
	}
	if g.IsFriend(f.alice, f.charlie, Twitter) {
		t.Error("unidirectional follow detected as friendship")
	}
	if !g.FollowsEdge(f.alice, f.charlie, Twitter) || g.FollowsEdge(f.charlie, f.alice, Twitter) {
		t.Error("follows edges wrong")
	}
	if g.IsFriend(f.alice, f.bob, LinkedIn) {
		t.Error("friendship leaked across networks")
	}
}

func TestFollowedExcludesFriends(t *testing.T) {
	f := buildPaperExample()
	got := f.g.Followed(f.alice, Twitter, false)
	if len(got) != 1 || got[0] != f.charlie {
		t.Errorf("Followed = %v, want [charlie]", got)
	}
	got = f.g.Followed(f.alice, Twitter, true)
	if len(got) != 2 {
		t.Errorf("Followed with friends = %v, want 2 users", got)
	}
}

func TestResourceCandidateMap(t *testing.T) {
	f := buildPaperExample()
	rcm := f.g.ResourceCandidateMap([]UserID{f.alice, f.bob}, TraversalOptions{MaxDistance: 2})
	// p2 is owned by Bob (dist 1) and created by Alice (dist 1).
	cds := rcm[f.p2]
	if len(cds) != 2 {
		t.Fatalf("p2 candidates = %v, want both alice and bob", cds)
	}
	for _, cd := range cds {
		if cd.Distance != 1 {
			t.Errorf("p2 candidate %d at distance %d, want 1", cd.Candidate, cd.Distance)
		}
	}
	// g1 reachable only from Alice (via her group) at distance 2.
	cds = rcm[f.g1]
	if len(cds) != 1 || cds[0].Candidate != f.alice || cds[0].Distance != 2 {
		t.Errorf("g1 candidates = %v, want [{alice 2}]", cds)
	}
}

func TestDistanceCounts(t *testing.T) {
	f := buildPaperExample()
	counts := f.g.DistanceCounts([]UserID{f.alice, f.bob}, TraversalOptions{MaxDistance: 2})
	fb := counts[Facebook]
	if fb[0] != 2 { // alice + bob profiles
		t.Errorf("facebook distance-0 count = %d, want 2", fb[0])
	}
	if fb[1] < 3 {
		t.Errorf("facebook distance-1 count = %d, want >= 3", fb[1])
	}
	tw := counts[Twitter]
	if tw[0] != 2 { // alice and bob profiles
		t.Errorf("twitter distance-0 count = %d, want 2", tw[0])
	}
}

func TestCandidates(t *testing.T) {
	f := buildPaperExample()
	c := f.g.Candidates()
	if len(c) != 2 || c[0] != f.alice || c[1] != f.bob {
		t.Errorf("Candidates = %v", c)
	}
}

func TestSetProfileReplaces(t *testing.T) {
	g := New()
	u := g.AddUser("u", true)
	r1 := g.SetProfile(u, Facebook, "first")
	r2 := g.SetProfile(u, Facebook, "second")
	if r1 != r2 {
		t.Fatalf("profile resource changed: %d -> %d", r1, r2)
	}
	if g.Resource(r1).Text != "second" {
		t.Errorf("profile text = %q", g.Resource(r1).Text)
	}
	if g.NumResources() != 1 {
		t.Errorf("NumResources = %d, want 1", g.NumResources())
	}
}

func TestPanicsOnInvalidIDs(t *testing.T) {
	g := New()
	u := g.AddUser("u", true)
	assertPanics(t, "unknown user", func() { g.Owns(UserID(99), 0) })
	assertPanics(t, "unknown resource", func() { g.Annotates(u, ResourceID(99)) })
	assertPanics(t, "unknown container", func() { g.RelatesTo(u, ContainerID(99)) })
	assertPanics(t, "self follow", func() { g.Follows(u, u, Twitter) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestKindStrings(t *testing.T) {
	kinds := []ResourceKind{KindProfile, KindPost, KindTweet, KindGroupPost, KindPagePost, KindUpdate, KindContainerDesc}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
	if ContainerGroup.String() != "group" || ContainerPage.String() != "page" {
		t.Error("container kind strings wrong")
	}
}

// mustProfile is a test helper.
func (g *Graph) mustProfile(u UserID, net Network) ResourceID {
	r, ok := g.Profile(u, net)
	if !ok {
		panic("no profile")
	}
	return r
}

// TestChangedSince covers the change journal: off until first asked,
// one entry per record mutation (edges are not records), sorted and
// without repeats, and no answer for a cursor it cannot serve.
func TestChangedSince(t *testing.T) {
	g := New()
	u := g.AddUser("ann", true)
	post := g.AddResource(Twitter, KindTweet, u, "before the journal")

	ids, cur, ok := g.ChangedSince(0)
	if ok || ids != nil || cur == 0 {
		t.Fatalf("zero cursor = %v, %d, %t; want no answer and a cursor", ids, cur, ok)
	}
	if ids, next, ok := g.ChangedSince(cur); !ok || len(ids) != 0 || next != cur {
		t.Fatalf("nothing changed: %v, %d, %t", ids, next, ok)
	}

	prof := g.SetProfile(u, Facebook, "first profile")
	g.SetProfile(u, Facebook, "replaced profile")
	c := g.AddContainer(Facebook, ContainerGroup, u, "club", "a club")
	inside := g.AddContainedResource(KindGroupPost, c, u, "inside")
	g.SetResourceText(post, "edited")
	g.RemoveResource(post)
	g.Owns(u, inside)
	g.Annotates(u, inside)
	g.RelatesTo(u, c)
	g.Befriend(u, g.AddUser("bob", false), Facebook)

	ids, next, ok := g.ChangedSince(cur)
	want := []ResourceID{post, prof, g.Container(c).Desc, inside}
	if !ok || !slices.Equal(ids, want) || next != cur+6 {
		t.Fatalf("ChangedSince = %v, %d, %t; want %v, %d", ids, next, ok, want, cur+6)
	}
	if _, _, ok := g.ChangedSince(next + 1); ok {
		t.Error("a cursor the graph never issued was answered")
	}

	for i := 0; i < JournalWindow; i++ {
		g.SetResourceText(inside, "churn")
	}
	if _, _, ok := g.ChangedSince(next); !ok {
		t.Error("a cursor exactly one window old was not answered")
	}
	g.SetResourceText(inside, "one more")
	if _, _, ok := g.ChangedSince(next); ok {
		t.Error("a cursor older than the window was answered")
	}
	if ids, _, ok := g.ChangedSince(next + 1); !ok || !slices.Equal(ids, []ResourceID{inside}) {
		t.Errorf("a cursor inside the window = %v, %t", ids, ok)
	}
}

// TestOrigin: a stamp names the source a graph is an exact copy of and
// restarts the change journal at 1, where that source's feed begins;
// the graph stays pristine until a record or an edge changes.
func TestOrigin(t *testing.T) {
	for name, change := range map[string]func(f *fixture){
		"text replaced":   func(f *fixture) { f.g.SetResourceText(f.p1, "post at 09.00, edited") },
		"profile set":     func(f *fixture) { f.g.SetProfile(f.dave, Facebook, "swimming fan") },
		"resource added":  func(f *fixture) { f.g.AddResource(Twitter, KindTweet, f.dave, "tweet at 11.00") },
		"resource gone":   func(f *fixture) { f.g.RemoveResource(f.t1) },
		"follow added":    func(f *fixture) { f.g.Follows(f.dave, f.alice, Twitter) },
		"membership":      func(f *fixture) { f.g.RelatesTo(f.bob, f.group) },
		"like":            func(f *fixture) { f.g.Annotates(f.bob, f.g1) },
		"container added": func(f *fixture) { f.g.AddContainer(Facebook, ContainerPage, f.bob, "Pool", "a page") },
	} {
		f := buildPaperExample()
		if id, pristine := f.g.Origin(); id != "" || pristine {
			t.Fatalf("unstamped graph: Origin() = %q, %t", id, pristine)
		}
		// A journal already running before the stamp restarts at 1.
		f.g.ChangedSince(1)
		f.g.SetResourceText(f.p2, "post at 09.05, edited before the stamp")
		f.g.StampOrigin("paper-example")
		if id, pristine := f.g.Origin(); id != "paper-example" || !pristine {
			t.Fatalf("stamped graph: Origin() = %q, %t", id, pristine)
		}
		if ids, next, ok := f.g.ChangedSince(1); !ok || len(ids) != 0 || next != 1 {
			t.Fatalf("stamped graph: ChangedSince(1) = %v, %d, %t; want nothing, 1, true", ids, next, ok)
		}
		f.g.Reachability(f.g.Candidates(), TraversalOptions{MaxDistance: 2})
		if _, pristine := f.g.Origin(); !pristine {
			t.Fatal("building a reachability table unset pristine")
		}
		change(f)
		if id, pristine := f.g.Origin(); id != "paper-example" || pristine {
			t.Errorf("%s: Origin() = %q, %t; want the stamp, no longer pristine", name, id, pristine)
		}
	}
}
