package expertfind

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	sysOnce sync.Once
	sys     *System
)

// system returns a reduced-scale system shared across facade tests.
func system(t testing.TB) *System {
	t.Helper()
	sysOnce.Do(func() { sys = NewSystem(Config{Seed: 1, Scale: 0.2}) })
	return sys
}

func TestFindReturnsRankedExperts(t *testing.T) {
	s := system(t)
	experts, err := s.Find("why is copper a good conductor?")
	if err != nil {
		t.Fatal(err)
	}
	if len(experts) == 0 {
		t.Fatal("no experts found")
	}
	for i, e := range experts {
		if e.Score <= 0 || e.Name == "" || e.SupportingResources <= 0 {
			t.Errorf("expert %d malformed: %+v", i, e)
		}
		if i > 0 && experts[i-1].Score < e.Score {
			t.Errorf("ranking not descending at %d", i)
		}
	}
}

func TestFindOptionValidation(t *testing.T) {
	s := system(t)
	if _, err := s.Find("x", WithAlpha(1.5)); err == nil {
		t.Error("alpha 1.5 accepted")
	}
	if _, err := s.Find("x", WithAlpha(math.NaN())); err == nil {
		t.Error("alpha NaN accepted")
	}
	if _, err := s.Find("x", WithMaxDistance(3)); err == nil {
		t.Error("distance 3 accepted")
	}
	if _, err := s.Find("x", WithNetworks("myspace")); err == nil {
		t.Error("unknown network accepted")
	}
	for _, w := range []float64{math.NaN(), -5, math.Inf(1)} {
		if _, err := s.Find("x", WithDistanceWeights(1, w, 0.5)); err == nil {
			t.Errorf("distance weight %v accepted", w)
		}
	}
}

func TestFindOptionsChangeResults(t *testing.T) {
	s := system(t)
	need := "can you list some famous european football teams?"
	full, err := s.Find(need)
	if err != nil {
		t.Fatal(err)
	}
	profOnly, err := s.Find(need, WithMaxDistance(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(profOnly) >= len(full) {
		t.Errorf("distance 0 found %d experts, full %d", len(profOnly), len(full))
	}
	liOnly, err := s.Find(need, WithNetworks(LinkedIn))
	if err != nil {
		t.Fatal(err)
	}
	if len(liOnly) >= len(full) {
		t.Errorf("linkedin-only found %d experts, full %d", len(liOnly), len(full))
	}
}

func TestBestNetwork(t *testing.T) {
	s := system(t)
	best, rankings, err := s.BestNetwork("which php function returns the length of a string?")
	if err != nil {
		t.Fatal(err)
	}
	if best == "" {
		t.Fatal("no best network")
	}
	if len(rankings) != 3 {
		t.Fatalf("rankings for %d networks", len(rankings))
	}
	if len(rankings[best]) == 0 {
		t.Error("best network has empty ranking")
	}
}

func TestQueriesAndDomains(t *testing.T) {
	s := system(t)
	qs := s.Queries()
	if len(qs) != 30 {
		t.Fatalf("queries = %d", len(qs))
	}
	doms := map[string]bool{}
	for _, d := range Domains() {
		doms[d] = true
	}
	for _, q := range qs {
		if !doms[q.Domain] {
			t.Errorf("query %d has unknown domain %q", q.ID, q.Domain)
		}
	}
	if len(Domains()) != 7 {
		t.Errorf("domains = %v", Domains())
	}
}

func TestGroundTruthAccessors(t *testing.T) {
	s := system(t)
	names := s.Candidates()
	if len(names) != 40 {
		t.Fatalf("candidates = %d", len(names))
	}
	experts, err := s.Experts("sport")
	if err != nil {
		t.Fatal(err)
	}
	if len(experts) == 0 {
		t.Fatal("no sport experts")
	}
	ok, err := s.IsExpert(experts[0], "sport")
	if err != nil || !ok {
		t.Errorf("IsExpert(%s, sport) = %v, %v", experts[0], ok, err)
	}
	if _, err := s.IsExpert("nobody", "sport"); !errors.Is(err, ErrUnknownCandidate) {
		t.Errorf("unknown candidate: err = %v, want ErrUnknownCandidate", err)
	}
	if _, err := s.Experts("cooking"); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := s.IsExpert(experts[0], "cooking"); err == nil {
		t.Error("unknown domain accepted by IsExpert")
	}
}

func TestStats(t *testing.T) {
	s := system(t)
	st := s.Stats()
	if st.Candidates != 40 || st.Resources == 0 || st.Indexed == 0 || st.Indexed > st.Resources {
		t.Errorf("stats = %+v", st)
	}
	if st.WebPages == 0 || st.Users < st.Candidates {
		t.Errorf("stats = %+v", st)
	}
}

// TestIndexShardsBoundsEveryContainer: Config.IndexShards is the worker
// bound of the one index container, in memory and on disk alike, and
// Stats reports the bound the index scores with.
func TestIndexShardsBoundsEveryContainer(t *testing.T) {
	for name, dir := range map[string]string{"memory": "", "segment store": t.TempDir()} {
		s, err := Open(Options{Config: Config{Seed: 1, Scale: 0.05, IndexShards: 3}, SegmentDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.SegmentStore(); (st != nil) != (dir != "") {
			t.Fatalf("%s: SegmentStore() = %v", name, st)
		} else if st != nil {
			defer st.Close()
		}
		if got := s.Stats().IndexShards; got != 3 {
			t.Errorf("%s: Stats().IndexShards = %d, want 3", name, got)
		}
		if got := s.store().Workers(); got != 3 {
			t.Errorf("%s: the index scores on %d workers, want 3", name, got)
		}
	}
}

func TestNetworksList(t *testing.T) {
	nets := Networks()
	if len(nets) != 3 {
		t.Fatalf("networks = %v", nets)
	}
	joined := ""
	for _, n := range nets {
		joined += string(n) + " "
	}
	for _, want := range []string{"facebook", "twitter", "linkedin"} {
		if !strings.Contains(joined, want) {
			t.Errorf("networks missing %s: %v", want, nets)
		}
	}
}

func TestWithFriendsAndWeights(t *testing.T) {
	s := system(t)
	need := "who is the best at freestyle swimming after michael phelps?"
	if _, err := s.Find(need, WithFriends(), WithNetworks(Twitter)); err != nil {
		t.Fatal(err)
	}
	uniform, err := s.Find(need, WithDistanceWeights(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	def, err := s.Find(need)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniform) == 0 || len(def) == 0 {
		t.Fatal("empty rankings")
	}
	// Same retrieval set, possibly different ordering/scores.
	if len(uniform) != len(def) {
		t.Errorf("weights changed retrieval set size: %d vs %d", len(uniform), len(def))
	}
}

func TestWithWindowExtremes(t *testing.T) {
	s := system(t)
	need := "can you list some famous songs of michael jackson?"
	one, err := s.Find(need, WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.Find(need, WithWindow(0)) // no truncation
	if err != nil {
		t.Fatal(err)
	}
	if len(one) > len(all) {
		t.Errorf("window 1 found more experts (%d) than unbounded (%d)", len(one), len(all))
	}
}

func TestSaveAndReloadCorpus(t *testing.T) {
	s := system(t)
	path := t.TempDir() + "/corpus.json.gz"
	if err := s.SaveCorpus(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(Options{CorpusPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded system must answer queries identically.
	need := "why is copper a good conductor?"
	a, err := s.Find(need)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reloaded.Find(need)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("rankings differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("rank %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
	if _, err := Open(Options{CorpusPath: t.TempDir() + "/missing.json"}); err == nil {
		t.Error("missing corpus accepted")
	}
}

func TestExplainFacade(t *testing.T) {
	s := system(t)
	need := "why is copper a good conductor?"
	experts, err := s.Find(need)
	if err != nil || len(experts) == 0 {
		t.Fatalf("find: %v (%d experts)", err, len(experts))
	}
	top := experts[0]

	expl, err := s.Explain(need, top.Name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if expl.Expert != top.Name || len(expl.Evidence) == 0 || len(expl.Evidence) > 3 {
		t.Fatalf("explanation = %+v", expl)
	}
	for _, ev := range expl.Evidence {
		if ev.Snippet == "" || ev.Contribution <= 0 || ev.Network == "" {
			t.Errorf("bad evidence %+v", ev)
		}
	}
	// Untruncated explanation reconstructs the full score.
	full, err := s.Explain(need, top.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := full.Score - top.Score; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("full explanation score %v != expert score %v", full.Score, top.Score)
	}
	if _, err := s.Explain(need, "nobody", 3); !errors.Is(err, ErrUnknownCandidate) {
		t.Errorf("unknown expert: err = %v, want ErrUnknownCandidate", err)
	}
	if _, err := s.Explain(need, top.Name, 3, WithAlpha(9)); err == nil || errors.Is(err, ErrUnknownCandidate) {
		t.Errorf("bad option: err = %v, want an option error", err)
	}
}
