package corpusio

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
)

func makeDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Config{Seed: 11, Scale: 0.03})
}

// assertEqualDatasets verifies that two datasets are observationally
// identical: same corpus, ground truth and web pages.
func assertEqualDatasets(t *testing.T, a, b *dataset.Dataset) {
	t.Helper()
	if a.Graph.NumResources() != b.Graph.NumResources() ||
		a.Graph.NumUsers() != b.Graph.NumUsers() ||
		a.Graph.NumContainers() != b.Graph.NumContainers() {
		t.Fatalf("graph sizes differ: %d/%d/%d vs %d/%d/%d",
			a.Graph.NumResources(), a.Graph.NumUsers(), a.Graph.NumContainers(),
			b.Graph.NumResources(), b.Graph.NumUsers(), b.Graph.NumContainers())
	}
	for i := 0; i < a.Graph.NumResources(); i++ {
		ra := a.Graph.Resource(socialgraph.ResourceID(i))
		rb := b.Graph.Resource(socialgraph.ResourceID(i))
		if ra.Text != rb.Text || ra.Kind != rb.Kind || ra.Network != rb.Network ||
			ra.Creator != rb.Creator || ra.Container != rb.Container {
			t.Fatalf("resource %d differs:\n%+v\n%+v", i, ra, rb)
		}
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ")
	}
	for _, u := range a.Candidates {
		if a.Expressiveness(u) != b.Expressiveness(u) || a.Activity(u) != b.Activity(u) {
			t.Fatalf("candidate %d latent traits differ", u)
		}
		for _, dom := range kb.Domains {
			if a.Level(u, dom) != b.Level(u, dom) {
				t.Fatalf("candidate %d level in %s differs", u, dom)
			}
			if a.IsExpert(u, dom) != b.IsExpert(u, dom) {
				t.Fatalf("candidate %d expert flag in %s differs", u, dom)
			}
		}
	}
	if a.Web.Len() != b.Web.Len() {
		t.Fatalf("web sizes differ: %d vs %d", a.Web.Len(), b.Web.Len())
	}
	// Traversal equivalence: the reconstructed graph must reproduce
	// the reachability structure exactly.
	for _, u := range a.Candidates[:5] {
		ha := a.Graph.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2})
		hb := b.Graph.ResourcesWithin(u, socialgraph.TraversalOptions{MaxDistance: 2})
		if len(ha) != len(hb) {
			t.Fatalf("candidate %d reach differs: %d vs %d", u, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("candidate %d hit %d differs: %v vs %v", u, i, ha[i], hb[i])
			}
		}
	}
}

// writeFile writes raw corpus file content under a fresh directory.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// records renders v as one JSON line each: a hand-made corpus file.
func records(t *testing.T, v ...any) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, r := range v {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestRoundTripFilePlainAndGzip: a saved corpus is a file with no
// chunks, and it reloads into the same, fully queryable dataset — with
// or without DropTexts, which only acts on chunks.
func TestRoundTripFilePlainAndGzip(t *testing.T) {
	d := makeDataset(t)
	dir := t.TempDir()
	for _, name := range []string{"corpus.json", "corpus.json.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(d, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, drop := range []bool{false, true} {
			chunks := 0
			got, err := LoadStreamFile(path, StreamLoadOptions{
				DropTexts: drop,
				OnChunk:   func(*dataset.Dataset, *dataset.StreamChunk) error { chunks++; return nil },
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if chunks != 0 {
				t.Fatalf("%s: a saved corpus replayed %d chunks", name, chunks)
			}
			assertEqualDatasets(t, d, got)
			// Ground-truth helpers must work on the loaded dataset: the
			// domain means are recomputed, so a domain has experts and
			// non-experts.
			for _, dom := range kb.Domains {
				if n := len(got.Experts(dom)); n == 0 || n == len(got.Candidates) {
					t.Errorf("%s: domain %s has %d experts of %d candidates", name, dom, n, len(got.Candidates))
				}
			}
			if len(got.Queries) != 30 {
				t.Errorf("%s: queries = %d", name, len(got.Queries))
			}
		}
	}
}

func TestStreamCorpusRoundTrip(t *testing.T) {
	for _, name := range []string{"corpus.stream.json", "corpus.stream.json.gz"} {
		path := filepath.Join(t.TempDir(), name)
		cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 4, Scale: 1.3}, ChunkDocs: 8000}
		written := 0
		if _, err := WriteStreamFile(path, cfg, func(_ *dataset.Dataset, chunks int) {
			if chunks != written+1 {
				t.Errorf("%s: progress reported chunk %d after %d", name, chunks, written)
			}
			written = chunks
		}); err != nil {
			t.Fatal(err)
		}
		// The writer drops chunk texts as it goes; generation is
		// deterministic, so a second run keeps them for the comparison.
		gen, err := dataset.GenerateStream(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		chunks := 0
		got, err := LoadStreamFile(path, StreamLoadOptions{
			OnChunk: func(*dataset.Dataset, *dataset.StreamChunk) error { chunks++; return nil },
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if chunks == 0 || chunks != written || chunks != cfg.BulkChunks() {
			t.Fatalf("%s: %d chunks replayed, %d written, want %d", name, chunks, written, cfg.BulkChunks())
		}
		if got.Graph.NumResources() != gen.Graph.NumResources() || got.Graph.NumUsers() != gen.Graph.NumUsers() {
			t.Fatalf("%s: %d resources / %d users, want %d / %d", name,
				got.Graph.NumResources(), got.Graph.NumUsers(),
				gen.Graph.NumResources(), gen.Graph.NumUsers())
		}
		for i := 0; i < gen.Graph.NumResources(); i += 733 {
			ra := gen.Graph.Resource(socialgraph.ResourceID(i))
			rb := got.Graph.Resource(socialgraph.ResourceID(i))
			if ra.Text != rb.Text || ra.Creator != rb.Creator || ra.Container != rb.Container {
				t.Fatalf("%s: resource %d differs after reload", name, i)
			}
		}
	}
}

func TestStreamCorpusDropTexts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.stream.json.gz")
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 7, Scale: 1.2}, ChunkDocs: 8000}
	gen, err := WriteStreamFile(path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	got, err := LoadStreamFile(path, StreamLoadOptions{DropTexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumResources() != gen.Graph.NumResources() {
		t.Fatalf("resources %d, want %d", got.Graph.NumResources(), gen.Graph.NumResources())
	}
	blank := 0
	for i := 0; i < got.Graph.NumResources(); i++ {
		if got.Graph.Resource(socialgraph.ResourceID(i)).Text == "" {
			blank++
		}
	}
	if blank == 0 {
		t.Fatal("DropTexts left every text in place")
	}
}

// TestStreamCorpusRejectsTruncation cuts the trailer off a generated
// file with chunks and off a saved one without: both are refused.
func TestStreamCorpusRejectsTruncation(t *testing.T) {
	streamed := filepath.Join(t.TempDir(), "corpus.stream.json")
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 4, Scale: 1.2}, ChunkDocs: 10000}
	if _, err := WriteStreamFile(streamed, cfg, nil); err != nil {
		t.Fatal(err)
	}
	// A saved corpus is the same format: it loads as one, and loses its
	// trailer the same way.
	saved := filepath.Join(t.TempDir(), "saved.json")
	if err := SaveFile(dataset.Generate(dataset.Config{Seed: 1, Scale: 0.3}), saved); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStreamFile(saved, StreamLoadOptions{}); err != nil {
		t.Fatalf("a saved corpus does not load as a corpus file: %v", err)
	}

	for _, path := range []string{streamed, saved} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the trailer line off.
		lines := strings.SplitAfter(string(raw), "\n")
		trunc := writeFile(t, "trunc.json", strings.Join(lines[:len(lines)-2], ""))
		if _, err := LoadStreamFile(trunc, StreamLoadOptions{}); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%s without its trailer: %v, want a truncation error", filepath.Base(path), err)
		}
	}
}

// TestLoadRefusesRetiredEnvelope: a file in the single-record format
// that saved corpora used before the format became one is refused with
// the command that regenerates it.
func TestLoadRefusesRetiredEnvelope(t *testing.T) {
	path := writeFile(t, "old.json", records(t, map[string]any{
		"format": "expertfind-corpus", "version": 1, "corpus": makeDataset(t).Snapshot(),
	}))
	_, err := LoadStreamFile(path, StreamLoadOptions{})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "datagen -save") {
		t.Fatalf("retired envelope: %v, want an error naming the file and `datagen -save`", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	hdr := streamRecord{Format: "expertfind-corpus-stream", Version: streamFormatVersion}
	eof := streamRecord{EOF: &streamTrailer{}}
	for _, c := range []struct{ name, content string }{
		{"garbage", "not json at all"},
		{"wrong format", `{"format":"something-else","version":1}`},
		{"wrong version", `{"format":"expertfind-corpus-stream","version":99}`},
		{"empty corpus", records(t, hdr, map[string]any{"base": map[string]any{}}, eof)},
		{"no base snapshot", records(t, hdr, eof)},
		{"empty record", records(t, hdr, map[string]any{})},
		{"chunk before base", records(t, hdr, streamRecord{Chunk: &dataset.StreamChunk{}}, eof)},
	} {
		if _, err := LoadStreamFile(writeFile(t, "c.json", c.content), StreamLoadOptions{}); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestLoadRejectsCorruptReferences: a base snapshot whose graph names a
// user it does not hold fails validation on load.
func TestLoadRejectsCorruptReferences(t *testing.T) {
	d := makeDataset(t)
	snap := d.Snapshot()
	if len(snap.Graph.Follows) == 0 {
		t.Skip("no follow edges at this scale")
	}
	load := func() error {
		path := writeFile(t, "c.json", records(t,
			streamRecord{Format: "expertfind-corpus-stream", Version: streamFormatVersion},
			streamRecord{Base: snap},
			streamRecord{EOF: &streamTrailer{Users: d.Graph.NumUsers(), Resources: d.Graph.NumResources()}}))
		_, err := LoadStreamFile(path, StreamLoadOptions{})
		return err
	}
	if err := load(); err != nil {
		t.Fatalf("hand-written corpus refused before corruption: %v", err)
	}
	snap.Graph.Follows[0].To = 1 << 30
	if load() == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadStreamFile(filepath.Join(t.TempDir(), "nope.json"), StreamLoadOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadIdentity: a load names its file by a digest of its bytes, so
// equal files load with equal identities and a one-byte difference
// does not. The graph is stamped as an exact copy of that identity
// unless DropTexts blanked a text: a file with no chunks has none to
// blank, a chunked one loses its stamp but keeps its identity.
func TestLoadIdentity(t *testing.T) {
	dir := t.TempDir()
	d := makeDataset(t)
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for _, p := range []string{a, b} {
		if err := SaveFile(d, p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), `"Text":"`) + len(`"Text":"`)
	if ch := data[i]; ch < 'a' || ch > 'y' {
		t.Fatalf("the first text starts with %q, want a lowercase letter to flip", ch)
	}
	data[i]++
	if err := os.WriteFile(c, data, 0o644); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "corpus.stream.json.gz")
	if _, err := WriteStreamFile(streamed, dataset.StreamConfig{Config: dataset.Config{Seed: 7, Scale: 1.1}, ChunkDocs: 8000}, nil); err != nil {
		t.Fatal(err)
	}

	load := func(path string, drop bool) (identity, origin string, pristine bool) {
		t.Helper()
		got, err := LoadStreamFile(path, StreamLoadOptions{DropTexts: drop})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sha256:%x", sha256.Sum256(data)); got.Identity != want {
			t.Fatalf("%s: identity %s, want the digest of the file's bytes, %s", path, got.Identity, want)
		}
		origin, pristine = got.Graph.Origin()
		return got.Identity, origin, pristine
	}
	idA, originA, pristineA := load(a, false)
	if !strings.HasPrefix(idA, "sha256:") || originA != idA || !pristineA {
		t.Fatalf("a: identity %q, origin %q (pristine %t); want a digest the graph is stamped with", idA, originA, pristineA)
	}
	if idB, _, _ := load(b, false); idB != idA {
		t.Fatalf("equal files: identities %q and %q", idA, idB)
	}
	if idC, _, _ := load(c, false); idC == idA {
		t.Fatalf("files one byte apart share identity %q", idA)
	}
	if id, origin, pristine := load(a, true); id != idA || origin != idA || !pristine {
		t.Fatalf("a with DropTexts (no chunks to blank): identity %q, origin %q, pristine %t", id, origin, pristine)
	}
	idS, originS, _ := load(streamed, false)
	if originS != idS {
		t.Fatalf("chunked file: origin %q, identity %q", originS, idS)
	}
	if id, origin, pristine := load(streamed, true); id != idS || origin != "" || pristine {
		t.Fatalf("chunked file with DropTexts: identity %q (want %q), origin %q, pristine %t; want no stamp", id, idS, origin, pristine)
	}
}
