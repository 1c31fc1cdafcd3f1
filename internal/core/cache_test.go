package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
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

// sprintfFingerprint and sprintfTraversalKey are the fmt forms the
// cache keys have always had: the reference the append-built keys must
// equal byte for byte.
func sprintfFingerprint(p Params) string {
	w := p.weights()
	var win string
	switch {
	case p.WindowFrac > 0:
		win = "f" + strconv.FormatFloat(p.WindowFrac, 'g', -1, 64)
	case p.WindowSize < 0:
		win = "all"
	case p.WindowSize == 0:
		win = strconv.Itoa(DefaultWindowSize)
	default:
		win = strconv.Itoa(p.WindowSize)
	}
	k := "all"
	if b := p.MatchBound(); b > 0 {
		k = strconv.Itoa(b)
	}
	return fmt.Sprintf("a%s|w%s|dw%g,%g,%g|k%s|%s",
		strconv.FormatFloat(p.alpha(), 'g', -1, 64), win,
		w[0], w[1], w[2], k, sprintfTraversalKey(p.Traversal))
}

func sprintfTraversalKey(opts socialgraph.TraversalOptions) string {
	nets := make([]string, len(opts.Networks))
	for i, n := range opts.Networks {
		nets[i] = string(n)
	}
	sort.Strings(nets)
	return fmt.Sprintf("d%d|f%t|%s", opts.MaxDistance, opts.IncludeFriends, strings.Join(nets, ","))
}

// TestFingerprintMatchesSprintf: the cache keys built by appending are
// byte-identical to their fmt forms over a grid of Params, and a
// fingerprint allocates only the string it returns.
func TestFingerprintMatchesSprintf(t *testing.T) {
	travs := []socialgraph.TraversalOptions{
		{},
		{MaxDistance: 2, IncludeFriends: true},
		{MaxDistance: 1, Networks: []socialgraph.Network{socialgraph.Twitter, socialgraph.Facebook}},
		{MaxDistance: 1, Networks: []socialgraph.Network{socialgraph.Facebook, socialgraph.Twitter}},
		{Networks: []socialgraph.Network{socialgraph.LinkedIn, socialgraph.Twitter, socialgraph.Facebook}},
	}
	var grid []Params
	for _, base := range []Params{
		{},
		{Alpha: DefaultAlpha, DistanceWeights: DefaultDistanceWeights, WindowSize: DefaultWindowSize},
		{AlphaSet: true},
		{Alpha: 0.3, AlphaSet: true},
		{Alpha: 1e-7},
		{WindowFrac: 0.25},
		{WindowFrac: 1.0 / 3, WindowSize: 7},
		{WindowSize: -1},
		{WindowSize: 5},
		{TopK: 10},
		{TopK: 500, WindowSize: 100},
		{TopK: 3, WindowSize: -1},
		{TopK: -2},
		{DistanceWeights: [3]float64{1, 0.5, 0.25}},
		{DistanceWeights: [3]float64{2e21, -0.0, math.Inf(1)}},
	} {
		for _, tr := range travs {
			p := base
			p.Traversal = tr
			grid = append(grid, p)
		}
	}
	for _, p := range grid {
		if got, want := p.Fingerprint(), sprintfFingerprint(p); got != want {
			t.Errorf("%+v: fingerprint %q, fmt form %q", p, got, want)
		}
		if got, want := string(appendTraversalKey(nil, p.Traversal)), sprintfTraversalKey(p.Traversal); got != want {
			t.Errorf("%+v: traversal key %q, fmt form %q", p.Traversal, got, want)
		}
	}
	p := Params{Traversal: travs[4], WindowFrac: 0.5, DistanceWeights: [3]float64{1, 0.5, 0.25}}
	if n := testing.AllocsPerRun(100, func() { p.Fingerprint() }); n > 1 {
		t.Errorf("Fingerprint allocates %g times, want at most 1", n)
	}
}

// TestReachabilityHitAllocs: a find whose traversal table is cached and
// current builds its cache key without allocating.
func TestReachabilityHitAllocs(t *testing.T) {
	f, _ := buildFigure1(t)
	opts := socialgraph.TraversalOptions{MaxDistance: 2, Networks: []socialgraph.Network{socialgraph.Twitter, socialgraph.Facebook}}
	r := f.reachability(opts)
	if n := testing.AllocsPerRun(100, func() {
		if f.reachability(opts) != r {
			t.Fatal("a cached, current table was replaced")
		}
	}); n > 0 {
		t.Errorf("a cached reachability lookup allocates %g times, want 0", n)
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
