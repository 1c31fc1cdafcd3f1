package dataset

import (
	"math"
	"testing"

	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
)

// small returns a cheap dataset for structural tests.
func small(t testing.TB) *Dataset {
	t.Helper()
	return Generate(Config{Seed: 7, Scale: 0.05})
}

func TestQueriesWellFormed(t *testing.T) {
	qs := Queries()
	if len(qs) != 30 {
		t.Fatalf("got %d queries, want 30", len(qs))
	}
	perDomain := map[kb.Domain]int{}
	for i, q := range qs {
		if q.ID != i+1 {
			t.Errorf("query %d has ID %d", i, q.ID)
		}
		if q.Text == "" {
			t.Errorf("query %d empty", q.ID)
		}
		perDomain[q.Domain]++
	}
	for _, d := range kb.Domains {
		if perDomain[d] < 4 {
			t.Errorf("domain %s has %d queries, want >= 4", d, perDomain[d])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 3, Scale: 0.03})
	b := Generate(Config{Seed: 3, Scale: 0.03})
	if a.Graph.NumResources() != b.Graph.NumResources() {
		t.Fatalf("resource counts differ: %d vs %d", a.Graph.NumResources(), b.Graph.NumResources())
	}
	if a.Graph.NumUsers() != b.Graph.NumUsers() {
		t.Fatalf("user counts differ")
	}
	for i := 0; i < a.Graph.NumResources(); i += 97 {
		ra := a.Graph.Resource(socialgraph.ResourceID(i))
		rb := b.Graph.Resource(socialgraph.ResourceID(i))
		if ra.Text != rb.Text || ra.Network != rb.Network || ra.Kind != rb.Kind {
			t.Errorf("resource %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	// Different seeds give different corpora.
	c := Generate(Config{Seed: 4, Scale: 0.03})
	if c.Graph.NumResources() == a.Graph.NumResources() {
		// Counts may coincide; compare some texts.
		same := true
		for i := 0; i < a.Graph.NumResources() && i < c.Graph.NumResources(); i += 53 {
			if a.Graph.Resource(socialgraph.ResourceID(i)).Text != c.Graph.Resource(socialgraph.ResourceID(i)).Text {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds generated identical corpora")
		}
	}
}

func TestGroundTruthCalibration(t *testing.T) {
	d := small(t)
	if len(d.Candidates) != 40 {
		t.Fatalf("candidates = %d", len(d.Candidates))
	}

	totalExperts, totalLevel := 0, 0.0
	for _, dom := range kb.Domains {
		n := len(d.Experts(dom))
		totalExperts += n
		if n < 5 || n > 30 {
			t.Errorf("domain %s has %d experts, implausible", dom, n)
		}
		for _, u := range d.Candidates {
			totalLevel += float64(d.Level(u, dom))
		}
	}
	avgExperts := float64(totalExperts) / float64(len(kb.Domains))
	if avgExperts < 12 || avgExperts > 22 {
		t.Errorf("average experts per domain = %.1f, want ≈17", avgExperts)
	}
	avgLevel := totalLevel / float64(len(d.Candidates)*len(kb.Domains))
	if math.Abs(avgLevel-3.57) > 0.6 {
		t.Errorf("average expertise = %.2f, want ≈3.57", avgLevel)
	}
	// Location must have notably fewer experts than Technology.
	if len(d.Experts(kb.Location)) >= len(d.Experts(kb.Technology)) {
		t.Errorf("location experts %d >= technology experts %d",
			len(d.Experts(kb.Location)), len(d.Experts(kb.Technology)))
	}
}

func TestExpertDefinitionAboveAverage(t *testing.T) {
	d := small(t)
	for _, dom := range kb.Domains {
		sum := 0
		for _, u := range d.Candidates {
			sum += d.Level(u, dom)
		}
		mean := float64(sum) / float64(len(d.Candidates))
		for _, u := range d.Candidates {
			want := float64(d.Level(u, dom)) > mean
			if got := d.IsExpert(u, dom); got != want {
				t.Fatalf("IsExpert(%d,%s)=%v, level=%d mean=%.2f", u, dom, got, d.Level(u, dom), mean)
			}
		}
	}
}

func TestLevelsInLikertRange(t *testing.T) {
	d := small(t)
	for _, u := range d.Candidates {
		for _, dom := range kb.Domains {
			if l := d.Level(u, dom); l < 1 || l > 7 {
				t.Fatalf("level %d out of 1..7", l)
			}
		}
	}
}

func TestSilentExpertsExist(t *testing.T) {
	d := small(t)
	silent := 0
	for _, u := range d.Candidates {
		e := d.Expressiveness(u)
		if e < 0 || e > 1 {
			t.Fatalf("expressiveness %v out of range", e)
		}
		if e < 0.15 {
			silent++
		}
	}
	if silent != 8 {
		t.Errorf("silent candidates = %d, want 8", silent)
	}
}

func TestInterestShape(t *testing.T) {
	d := small(t)
	for _, u := range d.Candidates {
		for _, dom := range kb.Domains {
			in := d.Interest(u, dom)
			if in < 0 || in > 1 {
				t.Fatalf("interest %v out of range", in)
			}
			// Minimum skill can still carry fan enthusiasm, but never
			// beyond the expressiveness ceiling.
			if d.Level(u, dom) == 1 && in > d.Expressiveness(u) {
				t.Fatalf("interest %v above expressiveness for minimum skill", in)
			}
		}
	}
	// Interest is monotone in level for a fixed user.
	u := d.Candidates[0]
	e := d.Expressiveness(u)
	if e > 0.15 {
		var prev float64 = -1
		for l := 1; l <= 7; l++ {
			s := float64(l-1) / 6
			in := e * math.Pow(s, 1.7)
			if in < prev {
				t.Fatal("interest not monotone in level")
			}
			prev = in
		}
	}
}

func TestCorpusStructure(t *testing.T) {
	d := small(t)
	g := d.Graph

	counts := g.DistanceCounts(d.Candidates, socialgraph.TraversalOptions{MaxDistance: 2})
	fb, tw, li := counts[socialgraph.Facebook], counts[socialgraph.Twitter], counts[socialgraph.LinkedIn]

	// Every candidate has a profile on each network.
	for _, net := range socialgraph.Networks {
		if counts[net][0] != len(d.Candidates) {
			t.Errorf("%s distance-0 resources = %d, want %d", net, counts[net][0], len(d.Candidates))
		}
	}

	fbTotal := fb[0] + fb[1] + fb[2]
	twTotal := tw[0] + tw[1] + tw[2]
	liTotal := li[0] + li[1] + li[2]

	// Fig. 5a shape: Facebook largest, LinkedIn smallest.
	if !(fbTotal > twTotal && twTotal > liTotal) {
		t.Errorf("network totals fb=%d tw=%d li=%d, want fb > tw > li", fbTotal, twTotal, liTotal)
	}
	// Twitter has the highest distance-1 volume.
	if !(tw[1] > fb[1] && tw[1] > li[1]) {
		t.Errorf("distance-1: fb=%d tw=%d li=%d, want twitter highest", fb[1], tw[1], li[1])
	}
	// LinkedIn is dominated by distance-2 group posts (~95% at full
	// scale; at this test's tiny Scale the fixed per-candidate
	// profiles weigh more, so assert the dominance only loosely here —
	// TestCorpusStructureFullScale covers the 95% property).
	if frac := float64(li[2]) / float64(liTotal); frac < 0.45 {
		t.Errorf("linkedin distance-2 fraction = %.2f, want >= 0.45", frac)
	}
}

func TestCorpusStructureFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale corpus generation")
	}
	d := Generate(Config{Seed: 1})
	counts := d.Graph.DistanceCounts(d.Candidates, socialgraph.TraversalOptions{MaxDistance: 2})
	li := counts[socialgraph.LinkedIn]
	liTotal := li[0] + li[1] + li[2]
	if frac := float64(li[2]) / float64(liTotal); frac < 0.85 {
		t.Errorf("linkedin distance-2 fraction = %.2f, want >= 0.85 (paper: 95%%)", frac)
	}
	if d.Graph.NumResources() < 10000 {
		t.Errorf("full-scale corpus has %d resources, want >= 10000", d.Graph.NumResources())
	}
}

func TestURLsRegisteredInWeb(t *testing.T) {
	d := small(t)
	g := d.Graph
	withURL, total := 0, 0
	for i := 0; i < g.NumResources(); i++ {
		r := g.Resource(socialgraph.ResourceID(i))
		if r.Kind == socialgraph.KindProfile || r.Kind == socialgraph.KindContainerDesc {
			continue
		}
		total++
		if len(r.URLs) > 0 {
			withURL++
			for _, u := range r.URLs {
				if _, ok := d.Web.Lookup(u); !ok {
					t.Fatalf("resource %d links unregistered URL %s", i, u)
				}
			}
		}
	}
	frac := float64(withURL) / float64(total)
	// The paper reports ~70% of resources containing a URL; topical
	// posts link at 70% but chatter never does, so expect 40–65%.
	if frac < 0.30 || frac > 0.80 {
		t.Errorf("URL fraction = %.2f, want within [0.30, 0.80]", frac)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.NumCandidates != 40 || c.Scale != 1.0 || c.SilentExperts != 8 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{NumCandidates: 10, SilentExperts: 9}.withDefaults()
	if c.SilentExperts != 5 {
		t.Errorf("silent experts not clamped: %d", c.SilentExperts)
	}
}

func TestQueriesInDomain(t *testing.T) {
	d := small(t)
	total := 0
	for _, dom := range kb.Domains {
		qs := d.QueriesInDomain(dom)
		total += len(qs)
		for _, q := range qs {
			if q.Domain != dom {
				t.Errorf("query %d leaked into %s", q.ID, dom)
			}
		}
	}
	if total != 30 {
		t.Errorf("domain partition covers %d queries", total)
	}
}
