package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"expertfind"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
)

var (
	srvOnce sync.Once
	srv     *httptest.Server
	sys     *expertfind.System
)

func server(t testing.TB) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		sys = expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.1})
		srv = httptest.NewServer(New(sys))
	})
	return srv
}

func get(t *testing.T, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(server(t).URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: content type %q", path, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
}

func TestHealth(t *testing.T) {
	var body map[string]string
	get(t, "/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestStats(t *testing.T) {
	var st expertfind.Stats
	get(t, "/v1/stats", http.StatusOK, &st)
	if st.Candidates != 40 || st.Resources == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDomainsAndQueries(t *testing.T) {
	var domains []string
	get(t, "/v1/domains", http.StatusOK, &domains)
	if len(domains) != 7 {
		t.Errorf("domains = %v", domains)
	}
	var queries []expertfind.Query
	get(t, "/v1/queries", http.StatusOK, &queries)
	if len(queries) != 30 {
		t.Errorf("queries = %d", len(queries))
	}
}

func TestExperts(t *testing.T) {
	var body struct {
		Domain  string   `json:"domain"`
		Experts []string `json:"experts"`
	}
	get(t, "/v1/experts?domain=sport", http.StatusOK, &body)
	if body.Domain != "sport" || len(body.Experts) == 0 {
		t.Errorf("body = %+v", body)
	}
	get(t, "/v1/experts?domain=cooking", http.StatusNotFound, nil)
	get(t, "/v1/experts", http.StatusBadRequest, nil)
}

func TestFind(t *testing.T) {
	var body struct {
		Need    string              `json:"need"`
		Experts []expertfind.Expert `json:"experts"`
	}
	q := url.QueryEscape("why is copper a good conductor?")
	get(t, "/v1/find?q="+q, http.StatusOK, &body)
	if len(body.Experts) == 0 {
		t.Fatal("no experts")
	}
	for i := 1; i < len(body.Experts); i++ {
		if body.Experts[i].Score > body.Experts[i-1].Score {
			t.Error("ranking not descending")
		}
	}

	// top truncation
	get(t, "/v1/find?top=2&q="+q, http.StatusOK, &body)
	if len(body.Experts) > 2 {
		t.Errorf("top=2 returned %d experts", len(body.Experts))
	}

	// options pass through
	get(t, "/v1/find?distance=0&networks=linkedin&alpha=0.8&window=50&friends=true&q="+q, http.StatusOK, &body)
}

func TestFindValidation(t *testing.T) {
	get(t, "/v1/find", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&alpha=banana", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&alpha=7", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&alpha=NaN", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&distance=9", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&window=wide", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&networks=myspace", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&friends=maybe", http.StatusBadRequest, nil)
	get(t, "/v1/find?q=x&top=-1", http.StatusBadRequest, nil)
}

func TestBestNetwork(t *testing.T) {
	var body struct {
		Best     string                         `json:"best"`
		Rankings map[string][]expertfind.Expert `json:"rankings"`
	}
	q := url.QueryEscape("can you list some famous songs of michael jackson?")
	get(t, "/v1/bestnetwork?top=3&q="+q, http.StatusOK, &body)
	if body.Best == "" || len(body.Rankings) != 3 {
		t.Errorf("body = %+v", body)
	}
	for net, experts := range body.Rankings {
		if len(experts) > 3 {
			t.Errorf("network %s returned %d experts with top=3", net, len(experts))
		}
	}
	get(t, "/v1/bestnetwork", http.StatusBadRequest, nil)
}

func TestMethodNotAllowed(t *testing.T) {
	resp, err := http.Post(server(t).URL+"/v1/find?q=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

func TestUnknownPath(t *testing.T) {
	resp, err := http.Get(server(t).URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestConcurrentFinds(t *testing.T) {
	s := server(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(s.URL + "/v1/find?q=" + url.QueryEscape("famous football teams"))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestExplain(t *testing.T) {
	// Find an expert first, then explain them.
	var found struct {
		Experts []expertfind.Expert `json:"experts"`
	}
	q := url.QueryEscape("why is copper a good conductor?")
	get(t, "/v1/find?top=1&q="+q, http.StatusOK, &found)
	if len(found.Experts) == 0 {
		t.Fatal("no experts to explain")
	}
	var expl struct {
		Expert   string `json:"Expert"`
		Evidence []any  `json:"Evidence"`
	}
	get(t, "/v1/explain?expert="+url.QueryEscape(found.Experts[0].Name)+"&q="+q, http.StatusOK, &expl)
	if expl.Expert != found.Experts[0].Name || len(expl.Evidence) == 0 {
		t.Errorf("explanation = %+v", expl)
	}
	get(t, "/v1/explain?q="+q, http.StatusBadRequest, nil)
	get(t, "/v1/explain?expert=nobody&q="+q, http.StatusNotFound, nil)
	// Malformed options are the request's fault, as on /v1/find, even
	// beside a valid expert; only an unknown expert is a 404.
	expert := "&expert=" + url.QueryEscape(found.Experts[0].Name) + "&q=" + q
	for _, bad := range []string{"alpha=2", "distance=7", "networks=myspace"} {
		get(t, "/v1/explain?"+bad+expert, http.StatusBadRequest, nil)
		get(t, "/v1/find?"+bad+"&q="+q, http.StatusBadRequest, nil)
	}
}

// TestExplainOptionErrorBeforeCandidate checks that a malformed option
// is reported as the request's fault even when the expert is unknown
// too: the options are resolved before the candidate lookup.
func TestExplainOptionErrorBeforeCandidate(t *testing.T) {
	q := url.QueryEscape("why is copper a good conductor?")
	var body map[string]string
	get(t, "/v1/explain?alpha=2&expert=nobody&q="+q, http.StatusBadRequest, &body)
	if !strings.Contains(body["error"], "alpha") {
		t.Errorf("error = %q, want it to name alpha", body["error"])
	}
	get(t, "/v1/explain?expert=nobody&q="+q, http.StatusNotFound, &body)
	if !strings.Contains(body["error"], "nobody") {
		t.Errorf("error = %q, want it to name the expert", body["error"])
	}
}

// rawFind fetches a /v1/find body without decoding it.
func rawFind(t *testing.T, query string) []byte {
	t.Helper()
	resp, err := http.Get(server(t).URL + "/v1/find?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/find?%s: status %d %s", query, resp.StatusCode, body)
	}
	return body
}

// TestFindTopK: topk is the only top-k bound a client sets. Over HTTP
// it ranks byte for byte as the library's WithTopK, and from the
// window of 100 up it is the unbounded request.
func TestFindTopK(t *testing.T) {
	server(t)
	bounded := false
	for _, need := range []string{"why is copper a good conductor?", "famous football teams", "can you list some famous songs of michael jackson?"} {
		q := "q=" + url.QueryEscape(need)
		unbounded := rawFind(t, q)
		for _, k := range []int{1, 3, 10, 100, 250} {
			experts, err := sys.Find(need, expertfind.WithTopK(k))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(findResponse{Need: need, Experts: experts}); err != nil {
				t.Fatal(err)
			}
			got := rawFind(t, fmt.Sprintf("%s&topk=%d", q, k))
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%q topk=%d:\n http:    %s\n library: %s", need, k, got, want.Bytes())
			}
			if k >= 100 && !bytes.Equal(got, unbounded) {
				t.Errorf("%q topk=%d differs from the request without topk:\n %s\n %s", need, k, got, unbounded)
			}
			bounded = bounded || !bytes.Equal(got, unbounded)
		}
	}
	if !bounded {
		t.Error("no topk below the window changed a ranking: the parameter does not reach the finder")
	}
	for _, bad := range []string{"-1", "x"} {
		var body map[string]string
		get(t, "/v1/find?q=copper&topk="+bad, http.StatusBadRequest, &body)
		if !strings.Contains(body["error"], "topk") {
			t.Errorf("topk=%s: error %q, want it to name topk", bad, body["error"])
		}
	}
}

// A value JSON cannot carry is a JSON 500, not a 200 with an empty
// body: writeJSON encodes before it writes the header.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Fatalf("got %d %q, want a JSON 500", rec.Code, rec.Body.String())
	}
}

// TestExplainSnippetCutsOnARune: a snippet is cut at the last rune
// boundary at or before its byte limit. Every text of a corpus file gets
// a two-byte letter across bytes 119 and 120 (a short one is padded with
// spaces, which analysis ignores), so a byte cut would end each snippet
// inside the letter; the library must hand back valid UTF-8 and the
// reply must carry no U+FFFD.
func TestExplainSnippetCutsOnARune(t *testing.T) {
	const cut = 119 // the letter's first byte; the limit is 120
	snap := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.1}).Snapshot()
	for i, r := range snap.Graph.Resources {
		if text := r.Text + strings.Repeat(" ", max(cut-len(r.Text), 0)); isASCII(text[:cut]) {
			snap.Graph.Resources[i].Text = text[:cut] + "é" + text[cut:]
		}
	}
	crafted, err := dataset.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/corpus.json.gz"
	if err := corpusio.SaveFile(crafted, path); err != nil {
		t.Fatal(err)
	}
	s, err := expertfind.Open(expertfind.Options{CorpusPath: path})
	if err != nil {
		t.Fatal(err)
	}
	need := "why is copper a good conductor?"
	experts, err := s.Find(need)
	if err != nil || len(experts) == 0 {
		t.Fatalf("find: %v (%d experts)", err, len(experts))
	}
	expl, err := s.Explain(need, experts[0].Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	cutOnRune := 0
	for _, ev := range expl.Evidence {
		if !utf8.ValidString(ev.Snippet) {
			t.Errorf("snippet %q is not valid UTF-8", ev.Snippet)
		}
		if len(ev.Snippet) == cut+len("...") && strings.HasSuffix(ev.Snippet, "...") {
			cutOnRune++
		}
	}
	if cutOnRune == 0 {
		t.Fatalf("no snippet was cut before the two-byte letter: %+v", expl.Evidence)
	}

	h := httptest.NewServer(New(s))
	defer h.Close()
	resp, err := http.Get(h.URL + "/v1/explain?top=0&expert=" + url.QueryEscape(experts[0].Name) + "&q=" + url.QueryEscape(need))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d, %v", resp.StatusCode, err)
	}
	if bytes.Contains(body, []byte(`\ufffd`)) || bytes.ContainsRune(body, utf8.RuneError) {
		t.Errorf("reply carries U+FFFD: %s", body)
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
