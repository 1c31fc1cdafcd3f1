package core

import (
	"context"
	"reflect"
	"testing"

	"expertfind/internal/socialgraph"
)

func TestNormalizeNeed(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Who SWIMS  best?", "who swims best?"},
		{"  leading and\ttrailing \n ", "leading and trailing"},
		{"already normal", "already normal"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NormalizeNeed(c.in); got != c.want {
			t.Errorf("NormalizeNeed(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParamsFingerprint(t *testing.T) {
	// Implicit defaults and their explicit spellings share a fingerprint.
	zero := Params{}.Fingerprint()
	explicit := Params{
		Alpha:           DefaultAlpha,
		DistanceWeights: DefaultDistanceWeights,
		WindowSize:      DefaultWindowSize,
	}.Fingerprint()
	if zero != explicit {
		t.Errorf("zero %q != explicit defaults %q", zero, explicit)
	}

	// Traversal network order must not matter.
	a := Params{Traversal: socialgraph.TraversalOptions{
		Networks: []socialgraph.Network{socialgraph.Twitter, socialgraph.Facebook},
	}}.Fingerprint()
	b := Params{Traversal: socialgraph.TraversalOptions{
		Networks: []socialgraph.Network{socialgraph.Facebook, socialgraph.Twitter},
	}}.Fingerprint()
	if a != b {
		t.Errorf("network order changed fingerprint: %q vs %q", a, b)
	}

	// Every ranking-relevant knob must produce a distinct fingerprint.
	variants := map[string]Params{
		"alpha":       {Alpha: 0.3},
		"alpha-zero":  {AlphaSet: true},
		"window":      {WindowSize: 5},
		"window-all":  {WindowSize: -1},
		"window-frac": {WindowFrac: 0.5},
		"topk":        {TopK: 7},
		"weights":     {DistanceWeights: [3]float64{1, 0.5, 0.25}},
		"distance":    {Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		"friends":     {Traversal: socialgraph.TraversalOptions{IncludeFriends: true}},
	}
	seen := map[string]string{"defaults": zero}
	for name, p := range variants {
		fp := p.Fingerprint()
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Errorf("%s and %s share fingerprint %q", name, prev, fp)
			}
		}
		seen[name] = fp
	}
}

func TestGroupFingerprint(t *testing.T) {
	f, users := buildFigure1(t)
	if f.GroupFingerprint() == "" {
		t.Fatal("empty group fingerprint")
	}
	g := f.Graph()
	sub := NewFinder(g, f.Index(), f.Pipeline(), []socialgraph.UserID{users["alice"], users["bob"]})
	if sub.GroupFingerprint() == f.GroupFingerprint() {
		t.Error("subgroup shares the full pool's fingerprint")
	}
	same := NewFinder(g, f.Index(), f.Pipeline(), nil)
	if same.GroupFingerprint() != f.GroupFingerprint() {
		t.Error("identical pools fingerprint differently")
	}
}

// fakeCache records the keys it sees and replays stored values.
type fakeCache struct {
	entries map[CacheKey][]ExpertScore
	keys    []CacheKey
}

func (c *fakeCache) GetOrCompute(key CacheKey, compute func() []ExpertScore) ([]ExpertScore, CacheStatus) {
	c.keys = append(c.keys, key)
	if v, ok := c.entries[key]; ok {
		return v, CacheHit
	}
	v := compute()
	c.entries[key] = v
	return v, CacheMiss
}

func TestFindCachedContext(t *testing.T) {
	f, _ := buildFigure1(t)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	need := "who is the best at freestyle swimming?"

	// No cache installed: bypass, ranking unchanged.
	out, st := f.FindCachedContext(context.Background(), need, p)
	if st != CacheBypass {
		t.Fatalf("status %q, want bypass", st)
	}
	cold := f.Find(need, p)
	if !reflect.DeepEqual(out, cold) {
		t.Fatal("bypass ranking differs from Find")
	}

	fc := &fakeCache{entries: map[CacheKey][]ExpertScore{}}
	f.SetResultCache(fc)
	out, st = f.FindCachedContext(context.Background(), need, p)
	if st != CacheMiss {
		t.Fatalf("first cached query: status %q, want miss", st)
	}
	if !reflect.DeepEqual(out, cold) {
		t.Fatal("miss ranking differs from cold")
	}
	// Case/whitespace variants of the need normalize onto one key.
	out, st = f.FindCachedContext(context.Background(), "  WHO is the best at  FREESTYLE swimming?", p)
	if st != CacheHit {
		t.Fatalf("normalized variant: status %q, want hit", st)
	}
	if !reflect.DeepEqual(out, cold) {
		t.Fatal("hit ranking differs from cold")
	}
	// FindContext routes through the cache too, dropping the status.
	if got := f.FindContext(context.Background(), need, p); !reflect.DeepEqual(got, cold) {
		t.Fatal("FindContext via cache differs from cold")
	}

	want := CacheKey{Need: NormalizeNeed(need), Group: f.GroupFingerprint(), Params: p.Fingerprint()}
	for _, k := range fc.keys {
		if k != want {
			t.Fatalf("cache key %+v, want %+v", k, want)
		}
	}

	// Removing the cache restores bypass.
	f.SetResultCache(nil)
	if _, st := f.FindCachedContext(context.Background(), need, p); st != CacheBypass {
		t.Fatalf("after removal: status %q, want bypass", st)
	}
}
