package corpusio

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"expertfind/internal/dataset"
)

var chunked struct {
	once  sync.Once
	lines []string
	err   error
}

// chunkedLines returns the lines, each with its newline, of an
// uncompressed corpus file with several chunks: header, base, the
// chunks in order, trailer. The file is generated once per process.
func chunkedLines(t *testing.T) []string {
	t.Helper()
	chunked.once.Do(func() {
		dir, err := os.MkdirTemp("", "corpusio-")
		if err != nil {
			chunked.err = err
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "corpus.stream.json")
		cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 4, Scale: 1.01, NumCandidates: 2}, ChunkDocs: 4000}
		if _, chunked.err = WriteStreamFile(path, cfg, nil); chunked.err != nil {
			return
		}
		raw, err := os.ReadFile(path)
		chunked.lines, chunked.err = strings.SplitAfter(string(raw), "\n"), err
	})
	if chunked.err != nil {
		t.Fatal(chunked.err)
	}
	lines := slices.Clone(chunked.lines[:len(chunked.lines)-1]) // drop the empty string after the last newline
	if chunks := len(lines) - 3; chunks < 5 {
		t.Fatalf("the corpus file has %d chunks, want at least 5", chunks)
	}
	return lines
}

// assertGoroutinesBack waits briefly for the goroutine count to fall
// back to baseline: the loader's decoder has exited.
func assertGoroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the load", runtime.NumGoroutine(), baseline)
		}
	}
}

// An OnChunk error ends the load with that error while the decoder may
// be a record ahead: no later chunk is applied to the dataset.
func TestLoadReadAheadStopsAtOnChunkError(t *testing.T) {
	path := writeFile(t, "c.json", strings.Join(chunkedLines(t), ""))
	baseline := runtime.NumGoroutine()
	refused := errors.New("chunk 2 refused")
	var seen []*dataset.StreamChunk
	var grown *dataset.Dataset
	_, err := LoadStreamFile(path, StreamLoadOptions{OnChunk: func(d *dataset.Dataset, c *dataset.StreamChunk) error {
		seen, grown = append(seen, c), d
		if len(seen) == 2 {
			return refused
		}
		return nil
	}})
	if err != refused {
		t.Fatalf("err = %v, want OnChunk's own error", err)
	}
	if len(seen) != 2 {
		t.Fatalf("OnChunk saw %d chunks, want 2", len(seen))
	}
	last := seen[1]
	if got, want := grown.Graph.NumResources(), int(last.FirstResource)+len(last.Resources); got != want {
		t.Fatalf("the dataset holds %d resources after the refused chunk, want %d: a later chunk was applied", got, want)
	}
	assertGoroutinesBack(t, baseline)
}

// Chunks before a corrupt one reach OnChunk, in order, before the
// decode error ends the load.
func TestLoadReadAheadDeliversChunksBeforeCorruption(t *testing.T) {
	lines := chunkedLines(t)
	lines[2+3] = `{"chunk":{"Resources":[not json]}}` + "\n" // chunk 4
	path := writeFile(t, "c.json", strings.Join(lines, ""))
	baseline := runtime.NumGoroutine()
	var firsts []int
	_, err := LoadStreamFile(path, StreamLoadOptions{OnChunk: func(_ *dataset.Dataset, c *dataset.StreamChunk) error {
		firsts = append(firsts, int(c.FirstResource))
		return nil
	}})
	const want = "corpusio: decoding corpus record: invalid character 'o' in literal null (expecting 'u')"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if len(firsts) != 3 || firsts[0] >= firsts[1] || firsts[1] >= firsts[2] {
		t.Fatalf("OnChunk saw chunks starting at %v, want the first 3 in order", firsts)
	}
	assertGoroutinesBack(t, baseline)
}

// A file cut inside a chunk and one with no trailer keep their
// truncation errors.
func TestLoadReadAheadKeepsTruncationErrors(t *testing.T) {
	lines := chunkedLines(t)
	cutChunk := strings.Join(lines[:4], "") + lines[4][:len(lines[4])/2]
	noTrailer := strings.Join(lines[:len(lines)-1], "")
	for _, c := range []struct {
		name, content, want string
		chunks              int
	}{
		{"cut inside chunk 3", cutChunk, "corpusio: decoding corpus record: unexpected EOF", 2},
		{"no trailer", noTrailer, "corpusio: corpus truncated (no trailer)", len(lines) - 3},
	} {
		baseline := runtime.NumGoroutine()
		chunks := 0
		_, err := LoadStreamFile(writeFile(t, "c.json", c.content), StreamLoadOptions{
			OnChunk: func(*dataset.Dataset, *dataset.StreamChunk) error { chunks++; return nil },
		})
		if err == nil || err.Error() != c.want {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if chunks != c.chunks {
			t.Fatalf("%s: OnChunk saw %d chunks, want %d", c.name, chunks, c.chunks)
		}
		assertGoroutinesBack(t, baseline)
	}
}
