package corpusio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/socialgraph"
)

func writeStreamCorpus(t *testing.T, path string, cfg dataset.StreamConfig) *dataset.Dataset {
	t.Helper()
	d, err := WriteStreamFile(path, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
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
	gen := writeStreamCorpus(t, path, cfg)

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

func TestStreamCorpusRejectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.stream.json")
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 4, Scale: 1.2}, ChunkDocs: 10000}
	writeStreamCorpus(t, path, cfg)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the trailer line off.
	lines := strings.SplitAfter(string(raw), "\n")
	cut := strings.Join(lines[:len(lines)-2], "")
	trunc := filepath.Join(t.TempDir(), "trunc.json")
	if err := os.WriteFile(trunc, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStreamFile(trunc, StreamLoadOptions{}); err == nil {
		t.Fatal("accepted a stream corpus without a trailer")
	}

	// A plain snapshot is not a stream corpus.
	plain := filepath.Join(t.TempDir(), "plain.json")
	if err := SaveFile(dataset.Generate(dataset.Config{Seed: 1, Scale: 0.3}), plain); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStreamFile(plain, StreamLoadOptions{}); err == nil {
		t.Fatal("accepted a monolithic snapshot as a stream corpus")
	}
}
