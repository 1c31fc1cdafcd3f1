package experiments

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
)

var (
	testOnce sync.Once
	testSys  *System
)

// testSystem is a reduced-scale system shared across tests: large
// enough for the qualitative patterns, small enough to build fast.
func testSystem(t testing.TB) *System {
	t.Helper()
	testOnce.Do(func() {
		testSys = BuildSystem(dataset.Config{Seed: 1, Scale: 0.25})
	})
	return testSys
}

func TestBuildSystem(t *testing.T) {
	s := testSystem(t)
	if s.Kept == 0 || s.Kept > s.DS.Graph.NumResources() {
		t.Fatalf("kept=%d of %d", s.Kept, s.DS.Graph.NumResources())
	}
	if got := s.Finder.Index().NumDocs(); got != s.Kept {
		t.Errorf("index docs=%d kept=%d", got, s.Kept)
	}
}

func TestMetricsInRange(t *testing.T) {
	s := testSystem(t)
	check := func(name string, m Metrics) {
		t.Helper()
		for _, v := range []float64{m.MAP, m.MRR, m.NDCG, m.NDCG10} {
			if v < 0 || v > 1 {
				t.Errorf("%s out of range: %+v", name, m)
				return
			}
		}
	}
	check("random", s.RandomBaseline())
	check("d2", s.Evaluate(networkParams(nil, 2)))
	check("tw-d1", s.Evaluate(twitterParams(1, false)))
}

func TestRandomBaselineDeterministic(t *testing.T) {
	s := testSystem(t)
	if a, b := s.RandomBaseline(), s.RandomBaseline(); a != b {
		t.Errorf("random baseline not deterministic: %v vs %v", a, b)
	}
}

// TestRandomRanking checks the random baseline's unit: k distinct
// candidates (all of them when k exceeds the pool), the same for the
// same seed.
func TestRandomRanking(t *testing.T) {
	cands := []socialgraph.UserID{10, 11, 12, 13, 14}
	pool := map[socialgraph.UserID]bool{}
	for _, u := range cands {
		pool[u] = true
	}
	for _, k := range []int{0, 3, 5, 10} {
		got := randomRanking(rand.New(rand.NewSource(5)), cands, k)
		if want := min(k, len(cands)); len(got) != want {
			t.Fatalf("k=%d: %d selected, want %d", k, len(got), want)
		}
		seen := map[socialgraph.UserID]bool{}
		for _, u := range got {
			if !pool[u] || seen[u] {
				t.Errorf("k=%d: %v repeats or invents a candidate", k, got)
			}
			seen[u] = true
		}
		if again := randomRanking(rand.New(rand.NewSource(5)), cands, k); !slices.Equal(got, again) {
			t.Errorf("k=%d: same seed gave %v then %v", k, got, again)
		}
	}
}

func TestShapeDistanceOrdering(t *testing.T) {
	s := testSystem(t)
	random := s.RandomBaseline()
	d0 := s.Evaluate(networkParams(nil, 0))
	d1 := s.Evaluate(networkParams(nil, 1))
	d2 := s.Evaluate(networkParams(nil, 2))

	// The paper's central finding (§3.4): profiles alone are worse
	// than random; adding social activity at distances 1 and 2
	// improves the metrics well above random.
	if d0.MAP >= random.MAP {
		t.Errorf("distance-0 MAP %.4f >= random %.4f", d0.MAP, random.MAP)
	}
	if !(d1.MAP > random.MAP && d2.MAP > random.MAP) {
		t.Errorf("behavioral MAP not above random: d1=%.4f d2=%.4f random=%.4f", d1.MAP, d2.MAP, random.MAP)
	}
	if d2.MAP <= d0.MAP || d2.NDCG <= d0.NDCG {
		t.Errorf("distance 2 does not dominate distance 0: %+v vs %+v", d2, d0)
	}
	if d1.MAP <= d0.MAP {
		t.Errorf("distance 1 MAP %.4f <= distance 0 %.4f", d1.MAP, d0.MAP)
	}
}

func TestShapeNetworkOrdering(t *testing.T) {
	s := testSystem(t)
	tw := s.Evaluate(networkParams([]socialgraph.Network{socialgraph.Twitter}, 2))
	li := s.Evaluate(networkParams([]socialgraph.Network{socialgraph.LinkedIn}, 2))
	// LinkedIn proved worse than the other social networks in all
	// cases (§3.5).
	if li.MAP >= tw.MAP {
		t.Errorf("linkedin MAP %.4f >= twitter %.4f", li.MAP, tw.MAP)
	}
}

func TestTable2FriendsNoBigGain(t *testing.T) {
	s := testSystem(t)
	t2 := RunTable2(s)
	byKey := map[[2]interface{}]Metrics{}
	for _, r := range t2.Rows {
		byKey[[2]interface{}{r.Distance, r.Friends}] = r.M
	}
	for _, dist := range []int{1, 2} {
		without := byKey[[2]interface{}{dist, false}]
		with := byKey[[2]interface{}{dist, true}]
		// Friends must not produce a significant improvement (§3.3.3):
		// allow at most a 15% relative MAP gain at this reduced scale.
		if with.MAP > without.MAP*1.15 {
			t.Errorf("dist %d: friends MAP %.4f >> without %.4f", dist, with.MAP, without.MAP)
		}
	}
	if !strings.Contains(t2.String(), "Table 2") {
		t.Error("Table2 render missing title")
	}
}

func TestFig5aCounts(t *testing.T) {
	s := testSystem(t)
	f := RunFig5a(s)
	if f.Candidates != 40 {
		t.Errorf("candidates = %d", f.Candidates)
	}
	for _, net := range socialgraph.Networks {
		c := f.Counts[net]
		if c[0] != 40 {
			t.Errorf("%s distance-0 = %d, want 40 profiles", net, c[0])
		}
	}
	out := f.String()
	for _, want := range []string{"facebook", "twitter", "linkedin", "dist2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig5bGroundTruth(t *testing.T) {
	s := testSystem(t)
	f := RunFig5b(s)
	if len(f.Rows) != len(kb.Domains) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if f.AvgExpertsRow < 10 || f.AvgExpertsRow > 25 {
		t.Errorf("avg experts = %.1f", f.AvgExpertsRow)
	}
	if f.AvgExpertiseAll < 2.5 || f.AvgExpertiseAll > 4.5 {
		t.Errorf("avg expertise = %.2f", f.AvgExpertiseAll)
	}
}

func TestFig6WindowGrowth(t *testing.T) {
	s := testSystem(t)
	f := RunFig6(s)
	if len(f.Dist1) != len(fig6Fracs) || len(f.Dist2) != len(fig6Fracs) {
		t.Fatalf("points: %d/%d", len(f.Dist1), len(f.Dist2))
	}
	// Increasing the window increases MAP and NDCG (§3.3.1): compare
	// the smallest and largest window at distance 2.
	first, last := f.Dist2[0].M, f.Dist2[len(f.Dist2)-1].M
	if last.MAP <= first.MAP {
		t.Errorf("MAP did not grow with window: %.4f -> %.4f", first.MAP, last.MAP)
	}
	if last.NDCG <= first.NDCG {
		t.Errorf("NDCG did not grow with window: %.4f -> %.4f", first.NDCG, last.NDCG)
	}
	if !strings.Contains(f.String(), "100res") {
		t.Error("render missing 100-resource operating point")
	}
}

func TestFig7AlphaStability(t *testing.T) {
	s := testSystem(t)
	f := RunFig7(s)
	for dist := 0; dist <= 2; dist++ {
		if len(f.Dist[dist]) != 11 {
			t.Fatalf("dist %d has %d points", dist, len(f.Dist[dist]))
		}
	}
	// α = 0 at distance 0 collapses (profiles carry few entities);
	// mid-range α is far better (§3.3.2).
	d0 := f.Dist[0]
	alpha0 := d0[0].M.MAP
	alphaMid := d0[6].M.MAP // α = 0.6
	if alpha0 >= alphaMid {
		t.Errorf("distance-0 alpha=0 MAP %.4f >= alpha=0.6 MAP %.4f", alpha0, alphaMid)
	}
}

func TestFig8And9Curves(t *testing.T) {
	s := testSystem(t)
	f8 := RunFig8(s)
	if len(f8.Curves) != 5 {
		t.Fatalf("fig8 curves = %d", len(f8.Curves))
	}
	f9 := RunFig9(s)
	if len(f9.Curves) != 4 {
		t.Fatalf("fig9 curves = %d", len(f9.Curves))
	}
	for _, c := range append(f8.Curves, f9.Curves...) {
		// 11-point curves are non-increasing.
		for i := 1; i < len(c.ElevenPt); i++ {
			if c.ElevenPt[i] > c.ElevenPt[i-1]+1e-9 {
				t.Errorf("%s: 11-pt curve increases at %d", c.Label, i)
			}
		}
		// DCG curves are non-decreasing in k.
		for i := 1; i < len(c.DCG); i++ {
			if c.DCG[i] < c.DCG[i-1]-1e-9 {
				t.Errorf("%s: DCG decreases at k=%d", c.Label, i+1)
			}
		}
	}
	if !strings.Contains(f8.String(), "11-point") || !strings.Contains(f9.String(), "DCG") {
		t.Error("curve renders incomplete")
	}
}

func TestTable4Coverage(t *testing.T) {
	s := testSystem(t)
	t4 := RunTable4(s)
	if len(t4.Rows) != len(kb.Domains)*3 {
		t.Fatalf("rows = %d", len(t4.Rows))
	}
	cell, ok := t4.Cell(kb.Sport, 2, "TW")
	if !ok {
		t.Fatal("missing sport/2/TW cell")
	}
	if cell.MAP < 0 || cell.MAP > 1 {
		t.Errorf("cell MAP = %v", cell.MAP)
	}
	if _, ok := t4.Cell(kb.Sport, 2, "nope"); ok {
		t.Error("unknown source found")
	}
	if !strings.Contains(t4.String(), "computer-engineering") {
		t.Error("render missing domain")
	}
}

func TestFig10UserAnalysis(t *testing.T) {
	s := testSystem(t)
	f := RunFig10(s)
	if len(f.Rows) != 40 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.F1 < 0 || r.F1 > 1 {
			t.Errorf("F1 %v out of range", r.F1)
		}
	}
	// The silent experts must be unreliable (paper: 8 candidates were
	// deemed completely unreliable): their mean F1 must fall far below
	// the expressive candidates' mean.
	var silentSum, loudSum float64
	var silentN, loudN int
	for _, r := range f.Rows {
		if s.DS.Expressiveness(r.User) < 0.15 {
			silentSum += r.F1
			silentN++
		} else {
			loudSum += r.F1
			loudN++
		}
	}
	if silentN == 0 || loudN == 0 {
		t.Fatalf("silent=%d loud=%d", silentN, loudN)
	}
	silentMean, loudMean := silentSum/float64(silentN), loudSum/float64(loudN)
	// At the reduced test scale the gap is noisier than at full scale
	// (where the ratio is ≈0.25), so assert it loosely here.
	if silentMean > 0.65*loudMean {
		t.Errorf("silent experts F1 %.3f not clearly below expressive %.3f", silentMean, loudMean)
	}
	// Estimation quality correlates with available resources.
	if f.Correlation <= 0 {
		t.Errorf("resource/F1 correlation = %.3f, want positive", f.Correlation)
	}
	if f.MeanF1 <= 0 || f.MedianF1 < 0 {
		t.Errorf("mean/median F1 = %v/%v", f.MeanF1, f.MedianF1)
	}
}

func TestFig11Deltas(t *testing.T) {
	s := testSystem(t)
	f := RunFig11(s)
	if len(f.Rows) != 30 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Profiles alone under-retrieve; distance 2 reaches many more
	// candidates (the correlation the paper highlights).
	if f.Avg[0] >= f.Avg[2] {
		t.Errorf("avg delta d0 %.1f >= d2 %.1f", f.Avg[0], f.Avg[2])
	}
	if f.Avg[0] >= 0 {
		t.Errorf("avg delta at distance 0 = %.1f, want negative (under-retrieval)", f.Avg[0])
	}
}

func TestSharedSingleton(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shared system")
	}
	a, b := Shared(), Shared()
	if a != b {
		t.Error("Shared not a singleton")
	}
}

func TestBaselineComparison(t *testing.T) {
	s := testSystem(t)
	bc := RunBaselineComparison(s)
	if len(bc.Rows) != 4 {
		t.Fatalf("rows = %d", len(bc.Rows))
	}
	byMethod := map[string]Metrics{}
	for _, r := range bc.Rows {
		byMethod[r.Method] = r.M
	}
	random := byMethod["random"]
	vsm := byMethod["social-vsm (paper)"]
	m2 := byMethod["balog-model2"]
	// Every informed method must beat random on MAP; the language
	// models see the same evidence, so they should land in the same
	// region as the paper's method.
	if m2.MAP <= random.MAP {
		t.Errorf("model2 MAP %.4f <= random %.4f", m2.MAP, random.MAP)
	}
	if vsm.MAP <= random.MAP {
		t.Errorf("vsm MAP %.4f <= random %.4f", vsm.MAP, random.MAP)
	}
	if !strings.Contains(bc.String(), "balog-model1") {
		t.Error("render missing model1")
	}
}

func TestSignificance(t *testing.T) {
	s := testSystem(t)
	sg := RunSignificance(s)
	if len(sg.Rows) != 5 {
		t.Fatalf("rows = %d", len(sg.Rows))
	}
	byName := map[string]SignificanceRow{}
	for _, r := range sg.Rows {
		if r.PValue < 0 || r.PValue > 1 {
			t.Errorf("%s: p-value %v", r.Comparison, r.PValue)
		}
		byName[r.Comparison] = r
	}
	// The headline gaps must be statistically significant.
	if r := byName["distance2 vs random"]; r.PValue >= 0.05 || r.MAPDiff <= 0 {
		t.Errorf("distance2 vs random: Δ%.4f p=%.4f, want significant positive", r.MAPDiff, r.PValue)
	}
	if r := byName["distance1 vs distance0"]; r.PValue >= 0.05 || r.MAPDiff <= 0 {
		t.Errorf("distance1 vs distance0: Δ%.4f p=%.4f, want significant positive", r.MAPDiff, r.PValue)
	}
	// Friends must NOT be a significant improvement.
	if r := byName["tw-d2 friends vs no-friends"]; r.PValue < 0.05 && r.MAPDiff > 0 {
		t.Errorf("friends significantly helped (Δ%.4f p=%.4f), contradicting Table 2", r.MAPDiff, r.PValue)
	}
	if !strings.Contains(sg.String(), "p-value") {
		t.Error("render incomplete")
	}
}

func TestCrawlRobustness(t *testing.T) {
	s := testSystem(t)
	cr := RunCrawlRobustness(s)
	if len(cr.Rows) != len(crawlAccessLevels) {
		t.Fatalf("rows = %d", len(cr.Rows))
	}
	// Resources shrink monotonically with access, and the full-access
	// crawl must perform like the original system (same reach).
	for i := 1; i < len(cr.Rows); i++ {
		if cr.Rows[i].Resources > cr.Rows[i-1].Resources {
			t.Errorf("resources grew as access shrank: %+v", cr.Rows)
		}
	}
	full := cr.Rows[0]
	orig := s.Evaluate(networkParams(nil, 2))
	if full.Denied != 0 {
		t.Errorf("denied %d at full access", full.Denied)
	}
	if diff := full.M.MAP - orig.MAP; diff > 0.05 || diff < -0.05 {
		t.Errorf("full-access crawl MAP %.4f far from original %.4f", full.M.MAP, orig.MAP)
	}
	// The most restricted crawl must be clearly worse than full access.
	last := cr.Rows[len(cr.Rows)-1]
	if last.M.MAP >= full.M.MAP {
		t.Errorf("restricted crawl MAP %.4f >= full %.4f", last.M.MAP, full.M.MAP)
	}
	if !strings.Contains(cr.String(), "access") {
		t.Error("render incomplete")
	}
}

func TestFaultSweep(t *testing.T) {
	s := testSystem(t)
	sw := DefaultFaultSweep()
	sw.Rates = []float64{0, 0.3} // keep the test to two index rebuilds
	ft := RunFaultSweep(s, sw)
	if len(ft.Rows) != 2 {
		t.Fatalf("rows = %d", len(ft.Rows))
	}
	clean, noisy := ft.Rows[0], ft.Rows[1]
	if clean.Retries != 0 || clean.GaveUp != 0 || clean.ResourcesBare != clean.Resources {
		t.Errorf("faults injected at rate 0: %+v", clean)
	}
	if clean.Spearman < 0.95 {
		t.Errorf("fault-free crawl does not reproduce the ranking: ρ = %.4f", clean.Spearman)
	}
	if noisy.Retries == 0 {
		t.Errorf("no retries at 30%% failure rate: %+v", noisy)
	}
	if noisy.Resources < noisy.ResourcesBare {
		t.Errorf("hardened crawl recovered fewer resources than the bare one: %d < %d",
			noisy.Resources, noisy.ResourcesBare)
	}
	if noisy.Resources > clean.Resources {
		t.Errorf("faulted crawl exceeds the clean one: %d > %d", noisy.Resources, clean.Resources)
	}
	if noisy.Spearman < -1 || noisy.Spearman > 1 {
		t.Errorf("ρ out of range: %v", noisy.Spearman)
	}
	if !strings.Contains(ft.String(), "failure") {
		t.Error("render incomplete")
	}
}

func TestNetworkAgreement(t *testing.T) {
	s := testSystem(t)
	na := RunNetworkAgreement(s)
	if len(na.Rows) != 6 { // C(4,2) pairs
		t.Fatalf("rows = %d", len(na.Rows))
	}
	var allFB, fbTW float64
	for _, r := range na.Rows {
		if r.Tau < -1 || r.Tau > 1 {
			t.Errorf("%s/%s tau = %v", r.A, r.B, r.Tau)
		}
		if r.A == "All" && r.B == "FB" {
			allFB = r.Tau
		}
		if r.A == "FB" && r.B == "TW" {
			fbTW = r.Tau
		}
	}
	// The combined ranking agrees more with any single network than
	// two disjoint networks agree with each other.
	if allFB <= fbTW {
		t.Errorf("All/FB tau %.4f <= FB/TW tau %.4f", allFB, fbTW)
	}
	if !strings.Contains(na.String(), "tau") {
		t.Error("render incomplete")
	}
}

func TestCorrelation(t *testing.T) {
	s := testSystem(t)
	c := RunCorrelation(s)
	if len(c.Rows) != 3 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.MatchesVsDelta < -1 || r.MatchesVsDelta > 1 || r.MatchesVsAP < -1 || r.MatchesVsAP > 1 {
			t.Errorf("correlation out of range: %+v", r)
		}
	}
	// Mean matching resources grow with distance.
	if !(c.Rows[0].MeanMatches < c.Rows[1].MeanMatches && c.Rows[1].MeanMatches < c.Rows[2].MeanMatches) {
		t.Errorf("mean matches not monotone: %+v", c.Rows)
	}
	if !strings.Contains(c.String(), "corr") {
		t.Error("render incomplete")
	}
}
