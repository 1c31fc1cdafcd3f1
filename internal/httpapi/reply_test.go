package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
)

// FuzzFindReply holds writeFind, the one writer of /v1/find, to
// encoding/json: for an arbitrary need, three arbitrary handles, scores
// from two arbitrary bit patterns and a top of 0, 1, n−1, n or n+5, its
// body is byte for byte what json.Encoder writes for the findResponse of
// the named experts cut to top, or, when the encoder refuses a score, a
// JSON 500. shape also picks whether the reply is degraded, whether the
// ranking is empty (the list is then [], never null), and whether the
// pool lacks the second-ranked expert, which is a JSON 500 naming it
// whenever the cut keeps that expert.
func FuzzFindReply(f *testing.F) {
	for _, s := range []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		math.Nextafter(1e-6, 0), 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 123456789,
		52.66167478275614, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("Which PHP function can I use?", "candidate-01", "Which PHP function can I use?", "",
			math.Float64bits(s), math.Float64bits(-s/3), 3, uint8(2))
	}
	f.Add("<b>&amp;</b>  ", "\xff\x00\"\\\b\f\n\r\t\x7f é", "<b>&amp;</b>  ", "",
		math.Float64bits(1.5), math.Float64bits(-0.5), -7, uint8(6))
	f.Add("", "", "", "", uint64(0), uint64(0), 0, uint8(0))
	f.Add("\xed\xa0\x80 surrogate", "\xf4\x90\x80\x80", "\xed\xa0\x80 surrogate", "",
		math.Float64bits(-2e-300), math.Float64bits(2e-300/3), 1<<40, uint8(5))
	scores := []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		math.Nextafter(1e-6, 0), 1e20, 1e21, math.Nextafter(1e21, 0), -1e21,
		52.66167478275614, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, s := range scores {
		f.Add("Which PHP function can I use?", "candidate-01", "b<>&", "\u2028",
			math.Float64bits(s), math.Float64bits(scores[(i+1)%len(scores)]), 3, uint8(i))
	}
	f.Add("<b>&amp;</b>  ", "\xff\x00\"\\\b\f\n\r\t\x7f é", "\u2028\u2029", "\xed\xa0\x80",
		math.Float64bits(1.5), math.Float64bits(-2e-300), -7, uint8(9))
	f.Add("", "", "", "", uint64(0), uint64(0), 0, uint8(0))
	f.Fuzz(func(t *testing.T, need, name0, name1, name2 string, bits0, bits1 uint64, support int, shape uint8) {
		cands := []core.Candidate{{ID: 2, Name: name0}, {ID: 5, Name: name1}, {ID: 9, Name: name2}}
		r := &core.Ranking{Scores: []core.ExpertScore{
			{User: 9, Score: math.Float64frombits(bits0), Resources: support},
			{User: 5, Score: math.Float64frombits(bits1), Resources: -support},
			{User: 2, Score: math.Float64frombits(bits0) / 3, Resources: 0},
		}}
		if shape&32 != 0 {
			r.Scores = r.Scores[:0]
		}
		n := len(r.Scores)
		top := [5]int{0, 1, n - 1, n, n + 5}[shape%5]
		var degraded *degradedInfo
		if shape&8 != 0 {
			degraded = &degradedInfo{ShardsDown: support, ShardsTotal: int(shape)}
		}
		listed := cands
		if shape&16 != 0 {
			listed = []core.Candidate{cands[0], cands[2]}
		}
		pool, err := core.NewPool(listed)
		if err != nil {
			t.Fatal(err)
		}

		scores := r.Scores
		if top > 0 && len(scores) > top {
			scores = scores[:top]
		}
		handles := map[socialgraph.UserID]string{}
		for _, c := range cands {
			handles[socialgraph.UserID(c.ID)] = c.Name
		}
		experts := make([]expertfind.Expert, len(scores))
		for i, e := range scores {
			experts[i] = expertfind.Expert{Name: handles[e.User], Score: e.Score, SupportingResources: e.Resources}
		}
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(findResponse{Need: need, Experts: experts, Degraded: degraded})

		rec := httptest.NewRecorder()
		writeFind(rec, need, r, top, pool, degraded)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var body map[string]string
		switch {
		case shape&16 != 0 && len(scores) > 1:
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(body["error"], "candidate 5 ") {
				t.Fatalf("the pool lacks candidate 5; writeFind answered %d %q", rec.Code, rec.Body)
			}
		case encErr != nil:
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
				t.Fatalf("encoder refused %+v (%v), writeFind answered %d %q", experts, encErr, rec.Code, rec.Body)
			}
		case rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()):
			t.Fatalf("writeFind answered %d\n%q\nencoding/json writes\n%q", rec.Code, rec.Body, want.Bytes())
		}
	})
}

// BenchmarkCachedFind times the result-cache hit path of /v1/find
// inside the handler: the guard, the cache lookup, naming the experts
// and writing the reply, with no network in between.
func BenchmarkCachedFind(b *testing.B) {
	server(b) // build the shared system
	h := NewWithOptions(sys, Options{Cache: rescache.New(rescache.Options{Capacity: 64})})
	defer sys.SetResultCache(nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/find?"+url.Values{
		"q": {"Which PHP function can I use in order to obtain the length of a string?"},
	}.Encode(), nil)
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.Code, warm.Body)
	}
	runtime.GC() // the corpus build's garbage, so the timed loop collects only its own
	var rec *httptest.ResponseRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}
	b.StopTimer()
	if got := rec.Header().Get("Cache-Status"); got != "hit" || !bytes.Equal(rec.Body.Bytes(), warm.Body.Bytes()) {
		b.Fatalf("Cache-Status %q; the hit's body differs from the miss's", got)
	}
}
