package baseline

import (
	"math"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/socialgraph"
)

// fixture builds a tiny corpus: user 1 owns two swimming docs, user 2
// owns two programming docs, user 3 owns one of each.
func fixture() (*LM, []socialgraph.UserID) {
	pipe := analysis.New(analysis.Options{})
	texts := map[socialgraph.ResourceID]string{
		1: "freestyle swimming training at the pool every morning is great",
		2: "the swimming race was close but our pool team won the medal",
		3: "debugging the php function that parses the string arguments",
		4: "wrote a new code library for database queries in the backend",
		5: "after swimming practice i fixed a bug in the php code",
	}
	docs := make(map[socialgraph.ResourceID]analysis.Analyzed)
	for id, s := range texts {
		a, ok := pipe.Analyze(s, nil)
		if !ok {
			panic("fixture doc filtered")
		}
		docs[id] = a
	}
	assoc := map[socialgraph.ResourceID][]Association{
		1: {{Candidate: 1, Weight: 1}},
		2: {{Candidate: 1, Weight: 1}},
		3: {{Candidate: 2, Weight: 1}},
		4: {{Candidate: 2, Weight: 1}},
		5: {{Candidate: 3, Weight: 1}},
	}
	return NewLM(docs, assoc), []socialgraph.UserID{1, 2, 3}
}

func needFor(text string) analysis.Analyzed {
	return analysis.New(analysis.Options{}).AnalyzeNeed(text)
}

func TestModel1RanksTopicalCandidateFirst(t *testing.T) {
	lm, cands := fixture()
	m := NewModel1(lm)

	got := m.Rank(needFor("swimming pool training"), cands)
	if len(got) == 0 || got[0].User != 1 {
		t.Errorf("swimming query ranking = %v, want user 1 first", got)
	}

	got = m.Rank(needFor("php function string code"), cands)
	if len(got) == 0 || got[0].User != 2 {
		t.Errorf("php query ranking = %v, want user 2 first", got)
	}
}

func TestModel2RanksTopicalCandidateFirst(t *testing.T) {
	lm, cands := fixture()
	m := NewModel2(lm)

	got := m.Rank(needFor("swimming pool training"), cands)
	if len(got) == 0 || got[0].User != 1 {
		t.Errorf("swimming query ranking = %v, want user 1 first", got)
	}

	got = m.Rank(needFor("php function string code"), cands)
	if len(got) == 0 || got[0].User != 2 {
		t.Errorf("php query ranking = %v, want user 2 first", got)
	}
}

func TestMixedCandidateRanksInBetween(t *testing.T) {
	lm, cands := fixture()
	for name, rank := range map[string]func(analysis.Analyzed, []socialgraph.UserID) []Scored{
		"model1": NewModel1(lm).Rank,
		"model2": NewModel2(lm).Rank,
	} {
		got := rank(needFor("swimming pool"), cands)
		pos := map[socialgraph.UserID]int{}
		for i, s := range got {
			pos[s.User] = i + 1
		}
		if pos[1] == 0 || pos[3] == 0 {
			t.Fatalf("%s: missing candidates in %v", name, got)
		}
		if pos[1] > pos[3] {
			t.Errorf("%s: pure swimmer ranked below mixed user: %v", name, got)
		}
	}
}

func TestUnmatchedQueryReturnsNothing(t *testing.T) {
	lm, cands := fixture()
	need := needFor("xylophone zeppelin quark")
	if got := NewModel1(lm).Rank(need, cands); len(got) != 0 {
		t.Errorf("model1 returned %v for unmatched query", got)
	}
	if got := NewModel2(lm).Rank(need, cands); len(got) != 0 {
		t.Errorf("model2 returned %v for unmatched query", got)
	}
}

func TestCandidateWithoutDocsOmitted(t *testing.T) {
	lm, _ := fixture()
	cands := []socialgraph.UserID{1, 99}
	for _, s := range NewModel1(lm).Rank(needFor("swimming"), cands) {
		if s.User == 99 {
			t.Error("model1 ranked a candidate with no documents")
		}
	}
	for _, s := range NewModel2(lm).Rank(needFor("swimming"), cands) {
		if s.User == 99 {
			t.Error("model2 ranked a candidate with no documents")
		}
	}
}

func TestAssociationWeightsMatter(t *testing.T) {
	// Same document associated strongly with user 1, weakly with
	// user 2: user 1 must outrank user 2 under Model 2.
	pipe := analysis.New(analysis.Options{})
	a, _ := pipe.Analyze("the swimming race in the pool was a great competition", nil)
	docs := map[socialgraph.ResourceID]analysis.Analyzed{1: a}
	assoc := map[socialgraph.ResourceID][]Association{
		1: {{Candidate: 1, Weight: 1.0}, {Candidate: 2, Weight: 0.5}},
	}
	lm := NewLM(docs, assoc)
	got := NewModel2(lm).Rank(needFor("swimming pool"), []socialgraph.UserID{1, 2})
	if len(got) != 2 || got[0].User != 1 {
		t.Fatalf("ranking = %v", got)
	}
	if ratio := got[0].Score / got[1].Score; math.Abs(ratio-2) > 1e-9 {
		t.Errorf("score ratio = %v, want 2 (weight ratio)", ratio)
	}
}

func TestDistanceWeights(t *testing.T) {
	rcm := map[socialgraph.ResourceID][]socialgraph.CandidateDistance{
		1: {{Candidate: 1, Distance: 0}, {Candidate: 2, Distance: 2}},
	}
	assoc := DistanceWeights(rcm)
	if len(assoc[1]) != 2 {
		t.Fatalf("assoc = %v", assoc)
	}
	if assoc[1][0].Weight != 1.0 || assoc[1][1].Weight != 0.5 {
		t.Errorf("weights = %v", assoc[1])
	}
}

func TestModelsDeterministic(t *testing.T) {
	lm, cands := fixture()
	need := needFor("swimming php code")
	a1 := NewModel1(lm).Rank(need, cands)
	a2 := NewModel1(lm).Rank(need, cands)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("model1 nondeterministic")
		}
	}
	b1 := NewModel2(lm).Rank(need, cands)
	b2 := NewModel2(lm).Rank(need, cands)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("model2 nondeterministic")
		}
	}
}
