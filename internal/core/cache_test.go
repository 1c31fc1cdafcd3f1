package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// TestNewPool: a pool is built from a strictly ascending id list only,
// names and quotes its members, and fingerprints as GroupFingerprint
// does.
func TestNewPool(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cands []Candidate
		ok    bool
	}{
		{"empty", nil, true},
		{"ascending", []Candidate{{ID: 1, Name: "ada"}, {ID: 4, Name: "b<o>b"}, {ID: 9, Name: "cyd"}}, true},
		{"repeated", []Candidate{{ID: 1, Name: "ada"}, {ID: 1, Name: "eve"}, {ID: 3, Name: "cyd"}}, false},
		{"descending", []Candidate{{ID: 3, Name: "cyd"}, {ID: 1, Name: "ada"}}, false},
	} {
		p, err := NewPool(tc.cands)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: NewPool accepted %v", tc.name, tc.cands)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := p.Group(), GroupFingerprint(tc.cands); got != want {
			t.Errorf("%s: Group %q, GroupFingerprint %q", tc.name, got, want)
		}
		if got := p.Candidates(); len(got) != len(tc.cands) || len(got) > 0 && !slices.Equal(got, tc.cands) {
			t.Errorf("%s: Candidates %v, want %v", tc.name, got, tc.cands)
		}
		for _, c := range tc.cands {
			name, ok := p.Name(socialgraph.UserID(c.ID))
			quoted, qok := p.Quoted(socialgraph.UserID(c.ID))
			want, _ := json.Marshal(c.Name)
			if !ok || !qok || name != c.Name || quoted != string(want) {
				t.Errorf("%s: candidate %d named %q %v, quoted %s %v", tc.name, c.ID, name, ok, quoted, qok)
			}
		}
		for _, u := range []socialgraph.UserID{0, 2, 10, -1} {
			if _, ok := p.Name(u); ok {
				t.Errorf("%s: Name(%d) found a candidate outside the pool", tc.name, u)
			}
			if _, ok := p.Quoted(u); ok {
				t.Errorf("%s: Quoted(%d) found a candidate outside the pool", tc.name, u)
			}
		}
	}
}

// TestPoolID: a handle names its candidate's id, an unknown handle none,
// and a handle two candidates share names the lower id.
func TestPoolID(t *testing.T) {
	cands := []Candidate{{ID: 2, Name: "ada"}, {ID: 5, Name: "bob"}, {ID: 7, Name: "eve"}, {ID: 9, Name: "bob"}}
	for _, tc := range []struct {
		name   string
		cands  []Candidate
		handle string
		want   socialgraph.UserID
		ok     bool
	}{
		{"present", cands, "eve", 7, true},
		{"first", cands, "ada", 2, true},
		{"absent", cands, "zed", 0, false},
		{"empty handle", cands, "", 0, false},
		{"empty pool", nil, "ada", 0, false},
		{"repeated handle", cands, "bob", 5, true},
	} {
		p, err := NewPool(tc.cands)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, ok := p.ID(tc.handle); got != tc.want || ok != tc.ok {
			t.Errorf("%s: ID(%q) = %d, %v; want %d, %v", tc.name, tc.handle, got, ok, tc.want, tc.ok)
		}
	}
}

// TestAppendJSONString holds AppendJSONString to encoding/json, HTML
// escaping on: quotes, control bytes, '<', '>' and '&', U+2028 and
// U+2029, invalid UTF-8 and valid multi-byte runes.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{
		"", "candidate-01", "\"\\\b\f\n\r\t\x00\x1f\x7f", "<b>&amp;</b>", "\u2028\u2029",
		"\xff", "\xed\xa0\x80 surrogate", "\xf4\x90\x80\x80", "é 漢字 🙂", "a\xc3",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got[1:], want)
		}
	}
}

func TestGroupFingerprint(t *testing.T) {
	f, users := buildFigure1(t)
	if f.Pool().Group() == "" {
		t.Fatal("empty group fingerprint")
	}
	g := f.Graph()
	sub := NewFinder(g, f.Index(), f.Pipeline(), []socialgraph.UserID{users["alice"], users["bob"]})
	if sub.Pool().Group() == f.Pool().Group() {
		t.Error("subgroup shares the full pool's fingerprint")
	}
	same := NewFinder(g, f.Index(), f.Pipeline(), nil)
	if same.Pool().Group() != f.Pool().Group() {
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

// TestFind: without a cache a find bypasses; with one it misses, then
// hits on a case and whitespace variant of the need, under one key, and
// every answer is the uncached ranking.
func TestFind(t *testing.T) {
	f, _ := buildFigure1(t)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	need := "who is the best at freestyle swimming?"
	cold := f.FindAnalyzed(f.Pipeline().AnalyzeNeed(need), p)
	if len(cold) == 0 {
		t.Fatal("no experts")
	}

	out, st := f.Find(context.Background(), need, p)
	if st != CacheBypass || !reflect.DeepEqual(out, cold) {
		t.Fatalf("no cache: status %q, ranking %v; want bypass, %v", st, out, cold)
	}

	fc := &fakeCache{entries: map[CacheKey][]ExpertScore{}}
	f.SetResultCache(fc)
	for _, c := range []struct {
		need string
		want CacheStatus
	}{
		{need, CacheMiss},
		{"  WHO is the best at  FREESTYLE swimming?", CacheHit},
	} {
		if out, st := f.Find(context.Background(), c.need, p); st != c.want || !reflect.DeepEqual(out, cold) {
			t.Fatalf("%q: status %q, ranking %v; want %q, %v", c.need, st, out, c.want, cold)
		}
	}
	want := CacheKey{Need: NormalizeNeed(need), Group: f.Pool().Group(), Params: p.Fingerprint()}
	if len(fc.keys) != 2 {
		t.Fatalf("%d cache lookups, want 2", len(fc.keys))
	}
	for _, k := range fc.keys {
		if k != want {
			t.Fatalf("cache key %+v, want %+v", k, want)
		}
	}

	// Removing the cache restores bypass.
	f.SetResultCache(nil)
	if _, st := f.Find(context.Background(), need, p); st != CacheBypass {
		t.Fatalf("after removal: status %q, want bypass", st)
	}
}

// TestFingerprintPinned pins the key text byte for byte: the default
// alpha and weights, formatted once, write the same bytes as a
// formatted non-default, whether the defaults are implicit or spelled
// out, so a cache key never changes with how it is built.
func TestFingerprintPinned(t *testing.T) {
	d2 := socialgraph.TraversalOptions{MaxDistance: 2}
	for _, c := range []struct {
		p    Params
		want string
	}{
		{Params{}, "a0.6|w100|dw1,0.75,0.5|k100|d0|ffalse|"},
		{Params{Traversal: d2}, "a0.6|w100|dw1,0.75,0.5|k100|d2|ffalse|"},
		{Params{Alpha: DefaultAlpha, AlphaSet: true, DistanceWeights: DefaultDistanceWeights, Traversal: d2},
			"a0.6|w100|dw1,0.75,0.5|k100|d2|ffalse|"},
		{Params{Alpha: 0.6, DistanceWeights: [3]float64{1, 0.75, 0.5}}, "a0.6|w100|dw1,0.75,0.5|k100|d0|ffalse|"},
		{Params{AlphaSet: true, Traversal: d2}, "a0|w100|dw1,0.75,0.5|k100|d2|ffalse|"},
		{Params{Alpha: 0.3, DistanceWeights: [3]float64{1, 0.5, 0.25}, WindowSize: 10, Traversal: d2},
			"a0.3|w10|dw1,0.5,0.25|k10|d2|ffalse|"},
		{Params{Alpha: 1e-7, DistanceWeights: [3]float64{1, 0.75, 0.25}}, "a1e-07|w100|dw1,0.75,0.25|k100|d0|ffalse|"},
		{Params{DistanceWeights: [3]float64{0.5, 0.75, 1}, WindowSize: -1}, "a0.6|wall|dw0.5,0.75,1|kall|d0|ffalse|"},
	} {
		if got := c.p.Fingerprint(); got != c.want {
			t.Errorf("%+v: fingerprint %q, want %q", c.p, got, c.want)
		}
	}
}

// TestRankingScoreJSON: the memoised score text is each score as
// encoding/json writes it, after one byte of its length, rendered once;
// a score JSON cannot carry leaves no text.
func TestRankingScoreJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, math.Nextafter(1e-6, 0),
		1e20, 1e21, -1e21, 52.66167478275614, -2.2250738585072014e-308, math.MaxFloat64}
	r := &Ranking{}
	for i, v := range vals {
		r.Scores = append(r.Scores, ExpertScore{User: socialgraph.UserID(i), Score: v})
	}
	text, ok := r.ScoreJSON()
	if !ok {
		t.Fatal("finite scores refused")
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		n := int(text[0])
		if got := text[1 : 1+n]; string(got) != string(want) {
			t.Errorf("score %v: text %q, encoding/json writes %q", v, got, want)
		}
		text = text[1+n:]
	}
	if len(text) != 0 {
		t.Errorf("%d bytes past the last score", len(text))
	}
	if again, _ := r.ScoreJSON(); &again[0] != &r.text[0] {
		t.Error("a second call rendered the text again")
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &Ranking{Scores: []ExpertScore{{Score: 1}, {Score: bad}}}
		if text, ok := r.ScoreJSON(); ok || text != nil {
			t.Errorf("score %v: text %q, ok %v; want none", bad, text, ok)
		}
	}
}

// rankingCache is a fakeCache that also hands out its stored Rankings.
type rankingCache struct {
	fakeCache
	rankings map[CacheKey]*Ranking
}

func (c *rankingCache) GetRanking(key CacheKey, compute func() []ExpertScore) (*Ranking, CacheStatus) {
	c.keys = append(c.keys, key)
	if r, ok := c.rankings[key]; ok {
		return r, CacheHit
	}
	r := &Ranking{Scores: compute()}
	c.rankings[key] = r
	return r, CacheMiss
}

// TestFindRanking: without a cache, or with one that only copies,
// FindRanking wraps Find's ranking; with a RankingCache every hit gets
// the cached Ranking itself, under the same key. The copying case has
// one user outside the tests: the ledger's span-timing cache wrapper
// (bench/layers.go's spanCache), which implements only GetOrCompute.
func TestFindRanking(t *testing.T) {
	f, _ := buildFigure1(t)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	need := "who is the best at freestyle swimming?"
	cold, _ := f.Find(context.Background(), need, p)

	r, st := f.FindRanking(context.Background(), need, p)
	if st != CacheBypass || !reflect.DeepEqual(r.Scores, cold) {
		t.Fatalf("no cache: status %q, ranking %v; want bypass, %v", st, r.Scores, cold)
	}
	f.SetResultCache(&fakeCache{entries: map[CacheKey][]ExpertScore{}})
	for _, want := range []CacheStatus{CacheMiss, CacheHit} {
		if r, st := f.FindRanking(context.Background(), need, p); st != want || !reflect.DeepEqual(r.Scores, cold) {
			t.Fatalf("copying cache: status %q, want %q; ranking %v", st, want, r.Scores)
		}
	}

	rc := &rankingCache{fakeCache: fakeCache{entries: map[CacheKey][]ExpertScore{}}, rankings: map[CacheKey]*Ranking{}}
	f.SetResultCache(rc)
	defer f.SetResultCache(nil)
	miss, st := f.FindRanking(context.Background(), need, p)
	if st != CacheMiss || !reflect.DeepEqual(miss.Scores, cold) {
		t.Fatalf("ranking cache: status %q, ranking %v; want miss, %v", st, miss.Scores, cold)
	}
	if hit, st := f.FindRanking(context.Background(), "  WHO is the best at freestyle SWIMMING?", p); st != CacheHit || hit != miss {
		t.Fatalf("ranking cache: status %q; want a hit on the miss's Ranking", st)
	}
	want := CacheKey{Need: NormalizeNeed(need), Group: f.Pool().Group(), Params: p.Fingerprint()}
	for _, k := range rc.keys {
		if k != want {
			t.Fatalf("cache key %+v, want %+v", k, want)
		}
	}
}
