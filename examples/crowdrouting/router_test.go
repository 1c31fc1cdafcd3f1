package main

import (
	"errors"
	"fmt"
	"testing"
)

// stubRanker always returns the same ranked pool.
func stubRanker(pool ...RankedExpert) Ranker {
	return RankerFunc(func(string) ([]RankedExpert, error) {
		return append([]RankedExpert(nil), pool...), nil
	})
}

func pool(n int) []RankedExpert {
	out := make([]RankedExpert, n)
	for i := range out {
		out[i] = RankedExpert{Name: fmt.Sprintf("e%02d", i+1), Score: float64(n - i)}
	}
	return out
}

func TestAskPicksTopExperts(t *testing.T) {
	r := NewRouter(stubRanker(pool(10)...), RouterConfig{CrowdSize: 3})
	a, err := r.Ask("q1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fallback || a.Partial {
		t.Fatalf("assignment = %+v", a)
	}
	want := []string{"e01", "e02", "e03"}
	for i, name := range want {
		if a.Crowd[i] != name {
			t.Errorf("crowd[%d] = %s, want %s", i, a.Crowd[i], name)
		}
	}
}

func TestBudgetSpreadsLoad(t *testing.T) {
	r := NewRouter(stubRanker(pool(10)...), RouterConfig{CrowdSize: 2, MaxOpen: 1, Cooldown: 1})
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		a, err := r.Ask(fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range a.Crowd {
			seen[name] = true
			if r.Load(name) > 1 {
				t.Fatalf("expert %s over budget", name)
			}
		}
	}
	// With budget 1 and no completions, 4 questions × 2 experts hit 8
	// distinct experts.
	if len(seen) != 8 {
		t.Errorf("distinct experts asked = %d, want 8", len(seen))
	}
}

func TestCompleteFreesBudgetAndCoolsDown(t *testing.T) {
	r := NewRouter(stubRanker(pool(4)...), RouterConfig{CrowdSize: 1, MaxOpen: 1, Cooldown: 1})
	a1, _ := r.Ask("q1")
	if a1.Crowd[0] != "e01" {
		t.Fatalf("crowd = %v", a1.Crowd)
	}
	if err := r.Complete(a1.ID, "e01"); err != nil {
		t.Fatal(err)
	}
	if r.Load("e01") != 0 || r.Answered("e01") != 1 {
		t.Errorf("load=%d answered=%d", r.Load("e01"), r.Answered("e01"))
	}
	// e01 is cooling down: the next question goes to e02.
	a2, _ := r.Ask("q2")
	if a2.Crowd[0] != "e02" {
		t.Errorf("cooldown ignored: %v", a2.Crowd)
	}
	// Cooldown expired after one routed question: e01 is available
	// again (e02 still holds q2).
	a3, _ := r.Ask("q3")
	if a3.Crowd[0] != "e01" {
		t.Errorf("cooldown did not expire: %v", a3.Crowd)
	}
}

func TestCompleteValidation(t *testing.T) {
	r := NewRouter(stubRanker(pool(3)...), RouterConfig{})
	a, _ := r.Ask("q")
	if err := r.Complete(999, "e01"); err == nil {
		t.Error("unknown assignment accepted")
	}
	if err := r.Complete(a.ID, "nobody"); err == nil {
		t.Error("unassigned expert accepted")
	}
	if err := r.Complete(a.ID, a.Crowd[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(a.ID, a.Crowd[0]); err == nil {
		t.Error("double completion accepted")
	}
}

func TestAssignmentClosesWhenAllAnswer(t *testing.T) {
	r := NewRouter(stubRanker(pool(5)...), RouterConfig{CrowdSize: 2})
	a, _ := r.Ask("q")
	if r.OpenQuestions() != 1 {
		t.Fatalf("open = %d", r.OpenQuestions())
	}
	for _, name := range append([]string(nil), a.Crowd...) {
		if err := r.Complete(a.ID, name); err != nil {
			t.Fatal(err)
		}
	}
	if r.OpenQuestions() != 0 {
		t.Errorf("open = %d after all answered", r.OpenQuestions())
	}
}

func TestFallbackWhenNobodyAvailable(t *testing.T) {
	r := NewRouter(stubRanker(), RouterConfig{})
	a, err := r.Ask("q")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Fallback {
		t.Errorf("assignment = %+v, want fallback", a)
	}
	if r.OpenQuestions() != 0 {
		t.Error("fallback question left open")
	}
}

func TestPartialCrowd(t *testing.T) {
	r := NewRouter(stubRanker(pool(2)...), RouterConfig{CrowdSize: 3})
	a, _ := r.Ask("q")
	if !a.Partial || len(a.Crowd) != 2 {
		t.Errorf("assignment = %+v", a)
	}
}

func TestMinScoreRatioCutsTail(t *testing.T) {
	r := NewRouter(stubRanker(
		RankedExpert{Name: "strong", Score: 100},
		RankedExpert{Name: "weak", Score: 1},
	), RouterConfig{CrowdSize: 3, MinScoreRatio: 0.1})
	a, _ := r.Ask("q")
	if len(a.Crowd) != 1 || a.Crowd[0] != "strong" {
		t.Errorf("crowd = %v, want the strong expert only", a.Crowd)
	}
}

func TestRankerErrorPropagates(t *testing.T) {
	r := NewRouter(RankerFunc(func(string) ([]RankedExpert, error) {
		return nil, errors.New("boom")
	}), RouterConfig{})
	if _, err := r.Ask("q"); err == nil {
		t.Error("ranker error swallowed")
	}
}

func TestLeaderboard(t *testing.T) {
	r := NewRouter(stubRanker(pool(3)...), RouterConfig{CrowdSize: 1, MaxOpen: 5, Cooldown: 1})
	for i := 0; i < 3; i++ {
		a, _ := r.Ask("q")
		if len(a.Crowd) == 0 {
			t.Fatal("no crowd")
		}
		if err := r.Complete(a.ID, a.Crowd[0]); err != nil {
			t.Fatal(err)
		}
	}
	lb := r.Leaderboard()
	if len(lb) == 0 {
		t.Fatal("empty leaderboard")
	}
	for i := 1; i < len(lb); i++ {
		if lb[i].Score > lb[i-1].Score {
			t.Error("leaderboard not descending")
		}
	}
}
