package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"expertfind"
	"expertfind/internal/rescache"
)

// FuzzFindReply holds writeFind to encoding/json: for arbitrary needs,
// names, scores and degraded info its body is byte for byte what
// json.Encoder writes for the same findResponse, or, when the encoder
// refuses a score, a JSON 500. shape picks the expert list (nil, empty
// or two experts) and whether the reply is degraded.
func FuzzFindReply(f *testing.F) {
	for _, s := range []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		math.Nextafter(1e-6, 0), 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 123456789,
		52.66167478275614, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("Which PHP function can I use?", "candidate-01", math.Float64bits(s), 3, uint8(2))
	}
	f.Add("<b>&amp;</b>  ", "\xff\x00\"\\\b\f\n\r\t\x7f é", math.Float64bits(1.5), -7, uint8(6))
	f.Add("", "", uint64(0), 0, uint8(0))
	f.Add("\xed\xa0\x80 surrogate", "\xf4\x90\x80\x80", math.Float64bits(-2e-300), 1<<40, uint8(5))
	f.Fuzz(func(t *testing.T, need, name string, bits uint64, support int, shape uint8) {
		score := math.Float64frombits(bits)
		resp := findResponse{Need: need}
		switch shape % 3 {
		case 1:
			resp.Experts = []expertfind.Expert{}
		case 2:
			resp.Experts = []expertfind.Expert{
				{Name: name, Score: score, SupportingResources: support},
				{Name: need, Score: -score / 3, SupportingResources: -support},
			}
		}
		if shape&4 != 0 {
			resp.Degraded = &degradedInfo{ShardsDown: support, ShardsTotal: int(shape)}
		}
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(resp)

		rec := httptest.NewRecorder()
		writeFind(rec, resp)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if encErr != nil {
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
				t.Fatalf("encoder refused %+v (%v), writeFind answered %d %q", resp, encErr, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
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
