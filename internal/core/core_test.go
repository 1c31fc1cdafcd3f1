package core

import (
	"context"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// buildFigure1 reproduces the running example of the paper's Fig. 1:
// Anna asks about the best freestyle swimmers. Alice tweeted about
// Michael Phelps's freestyle gold medal, Charlie posted about his
// freestyle training, Bob's profile lists swimming as a hobby, Chuck
// is only connected to Bob, and Peggy has nothing related.
func buildFigure1(t testing.TB) (*Finder, map[string]socialgraph.UserID) {
	t.Helper()
	g := socialgraph.New()
	users := map[string]socialgraph.UserID{
		"alice":   g.AddUser("Alice", true),
		"charlie": g.AddUser("Charlie", true),
		"bob":     g.AddUser("Bob", true),
		"chuck":   g.AddUser("Chuck", true),
		"peggy":   g.AddUser("Peggy", true),
	}

	g.SetProfile(users["alice"], socialgraph.Twitter, "just a person who loves racing sports")
	g.SetProfile(users["charlie"], socialgraph.Facebook, "enjoying life one day at a time")
	g.SetProfile(users["bob"], socialgraph.Facebook, "hobby: swimming, movies and long walks outside")
	g.SetProfile(users["chuck"], socialgraph.Twitter, "nothing interesting to say here really")
	g.SetProfile(users["peggy"], socialgraph.Facebook, "i like knitting and gardening in my backyard")

	tweet := g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, users["alice"],
		"Michael Phelps is the best! Great freestyle gold medal")
	g.Owns(users["alice"], tweet)

	post := g.AddResource(socialgraph.Facebook, socialgraph.KindPost, users["charlie"],
		"Just finished 30min freestyle training at the swimming pool")
	g.Owns(users["charlie"], post)

	// Chuck follows Bob on Twitter (unidirectional), so Bob's swimming
	// profile is a distance-1 resource for Chuck.
	g.SetProfile(users["bob"], socialgraph.Twitter, "swimming fan, i watch every race i can")
	g.Follows(users["chuck"], users["bob"], socialgraph.Twitter)

	pipe := analysis.New(analysis.Options{})
	ix := index.New()
	for i := 0; i < g.NumResources(); i++ {
		r := g.Resource(socialgraph.ResourceID(i))
		if a, ok := pipe.Analyze(r.Text, r.URLs); ok {
			ix.Add(index.Doc{ID: r.ID, A: a})
		}
	}
	return NewFinder(g, ix, pipe, nil), users
}

func rankOf(experts []ExpertScore, u socialgraph.UserID) int {
	for i, e := range experts {
		if e.User == u {
			return i
		}
	}
	return -1
}

func TestFigure1Ranking(t *testing.T) {
	f, users := buildFigure1(t)
	experts := f.Find("who is the best at freestyle swimming?", Params{
		Traversal: socialgraph.TraversalOptions{MaxDistance: 2},
	})

	if rankOf(experts, users["peggy"]) != -1 {
		t.Error("peggy retrieved despite having no related resources")
	}
	ra := rankOf(experts, users["alice"])
	rc := rankOf(experts, users["charlie"])
	rb := rankOf(experts, users["bob"])
	rch := rankOf(experts, users["chuck"])
	if ra == -1 || rc == -1 || rb == -1 || rch == -1 {
		t.Fatalf("missing experts: alice=%d charlie=%d bob=%d chuck=%d (%v)", ra, rc, rb, rch, experts)
	}
	// The paper's ranking: Alice, Charlie, Bob, Chuck.
	if !(ra < rc && rc < rb && rb < rch) {
		t.Errorf("ranking = alice:%d charlie:%d bob:%d chuck:%d, want alice < charlie < bob < chuck\n%v",
			ra, rc, rb, rch, experts)
	}
}

func TestDistanceZeroOnlyProfiles(t *testing.T) {
	f, users := buildFigure1(t)
	experts := f.Find("who is the best at freestyle swimming?", Params{
		Traversal: socialgraph.TraversalOptions{MaxDistance: 0},
	})
	// Only Bob's profile mentions swimming: he is the only expert
	// retrievable from profiles alone.
	if rankOf(experts, users["bob"]) != 0 {
		t.Errorf("bob not first with distance 0: %v", experts)
	}
	if rankOf(experts, users["alice"]) != -1 {
		t.Errorf("alice retrieved from profile only: %v", experts)
	}
	if rankOf(experts, users["chuck"]) != -1 {
		t.Errorf("chuck retrieved at distance 0: %v", experts)
	}
}

func TestNetworkRestriction(t *testing.T) {
	f, users := buildFigure1(t)
	experts := f.Find("who is the best at freestyle swimming?", Params{
		Traversal: socialgraph.TraversalOptions{
			MaxDistance: 2,
			Networks:    []socialgraph.Network{socialgraph.Facebook},
		},
	})
	if rankOf(experts, users["alice"]) != -1 {
		t.Errorf("alice (twitter only) retrieved on facebook: %v", experts)
	}
	if rankOf(experts, users["charlie"]) == -1 {
		t.Errorf("charlie (facebook) not retrieved: %v", experts)
	}
}

func TestDistanceWeightsMatter(t *testing.T) {
	f, users := buildFigure1(t)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}

	def := f.Find("who is the best at freestyle swimming?", p)

	// With weight 0 at distance 1 and 2, only profile evidence counts.
	p.DistanceWeights = [3]float64{1, 0, 0}
	profOnly := f.Find("who is the best at freestyle swimming?", p)
	if rankOf(profOnly, users["alice"]) != -1 {
		t.Errorf("alice scored with zeroed distance-1 weight: %v", profOnly)
	}
	if len(profOnly) >= len(def) {
		t.Errorf("zeroed weights retrieved %d >= %d experts", len(profOnly), len(def))
	}
}

func TestWindowTruncation(t *testing.T) {
	f, _ := buildFigure1(t)
	need := f.Pipeline().AnalyzeNeed("who is the best at freestyle swimming?")
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	matches := f.Matches(need, p)
	if len(matches) < 3 {
		t.Fatalf("only %d matches", len(matches))
	}
	// Window of 1: only the single best resource contributes.
	p.WindowSize = 1
	experts := f.RankFromMatches(matches, p)
	if len(experts) != 1 {
		t.Errorf("window 1 yielded %d experts, want 1", len(experts))
	}
	// Unbounded window.
	p.WindowSize = -1
	all := f.RankFromMatches(matches, p)
	if len(all) < len(experts) {
		t.Errorf("unbounded window yielded fewer experts")
	}
}

func TestWindowFrac(t *testing.T) {
	p := Params{WindowFrac: 0.5}
	if got := p.window(10); got != 5 {
		t.Errorf("window(10) at frac 0.5 = %d", got)
	}
	if got := p.window(1); got != 1 {
		t.Errorf("window(1) at frac 0.5 = %d, want minimum 1", got)
	}
	p = Params{}
	if got := p.window(1000); got != DefaultWindowSize {
		t.Errorf("default window = %d", got)
	}
}

func TestAlphaDefaulting(t *testing.T) {
	if (Params{}).alpha() != DefaultAlpha {
		t.Error("zero Params alpha != default")
	}
	if (Params{Alpha: 0.3}).alpha() != 0.3 {
		t.Error("explicit alpha ignored")
	}
	if (Params{AlphaSet: true}).alpha() != 0 {
		t.Error("AlphaSet zero alpha ignored")
	}
}

func TestScoresDeterministic(t *testing.T) {
	f, _ := buildFigure1(t)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	a := f.Find("who is the best at freestyle swimming?", p)
	b := f.Find("who is the best at freestyle swimming?", p)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEmptyNeed(t *testing.T) {
	f, _ := buildFigure1(t)
	experts := f.Find("", Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}})
	if len(experts) != 0 {
		t.Errorf("empty need retrieved %v", experts)
	}
}

func TestCandidatesAccessor(t *testing.T) {
	f, _ := buildFigure1(t)
	if len(f.Candidates()) != 5 {
		t.Errorf("Candidates = %v", f.Candidates())
	}
	if f.Graph() == nil || f.Index() == nil || f.Pipeline() == nil {
		t.Error("nil accessors")
	}
}

func TestExplain(t *testing.T) {
	f, users := buildFigure1(t)
	need := f.Pipeline().AnalyzeNeed("who is the best at freestyle swimming?")
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}

	// Alice's evidence is her tweet at distance 1.
	ev := f.Explain(context.Background(), need, users["alice"], p, 0)
	if len(ev) != 1 {
		t.Fatalf("alice evidence = %v", ev)
	}
	if ev[0].Distance != 1 {
		t.Errorf("alice evidence distance = %d", ev[0].Distance)
	}
	// The sum of contributions equals the ranked score.
	experts := f.FindAnalyzed(need, p)
	var aliceScore float64
	for _, e := range experts {
		if e.User == users["alice"] {
			aliceScore = e.Score
		}
	}
	var sum float64
	for _, e := range ev {
		sum += e.Contribution
		if e.Contribution != e.Relevance*DefaultDistanceWeights[e.Distance] {
			t.Errorf("contribution mismatch: %+v", e)
		}
	}
	if diff := sum - aliceScore; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("evidence sum %v != score %v", sum, aliceScore)
	}

	// Peggy has no evidence.
	if ev := f.Explain(context.Background(), need, users["peggy"], p, 0); len(ev) != 0 {
		t.Errorf("peggy evidence = %v", ev)
	}

	// Truncation.
	if ev := f.Explain(context.Background(), need, users["bob"], p, 1); len(ev) > 1 {
		t.Errorf("topN ignored: %v", ev)
	}
}
