package expertfind

import (
	"compress/gzip"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/ingest"
	"expertfind/internal/socialgraph"
)

// fetchCounter counts the content fetches an ingester makes.
type fetchCounter struct {
	faults.API
	users, containers atomic.Int64
}

func (c *fetchCounter) FetchUser(u socialgraph.UserID, net socialgraph.Network) (*faults.UserView, error) {
	c.users.Add(1)
	return c.API.FetchUser(u, net)
}

func (c *fetchCounter) FetchContainer(id socialgraph.ContainerID) (*faults.ContainerView, error) {
	c.containers.Add(1)
	return c.API.FetchContainer(id)
}

// TestReplicaResumesFeed is seg_churn's shape: a store cold-built from
// a chunked corpus file, reopened with NewSystemFromStream, and a
// remote twin loaded from a corpus file. A replica that is still an
// exact copy of its file resumes a twin of the same file at cursor 1,
// so its first round is scoped; a twin of another file, a second
// ingester after an applied round and a DropTexts load each start
// with a full round.
func TestReplicaResumesFeed(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.stream.json.gz")
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 3, Scale: 1.05}, ChunkDocs: 20000}
	if _, err := corpusio.WriteStreamFile(corpus, cfg, nil); err != nil {
		t.Fatal(err)
	}
	built := filepath.Join(dir, "built")
	sys, err := NewSystemFromStream(corpus, built, StreamOptions{KeepTexts: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.SegmentStore().Close()

	// open reopens a copy of the built store, so every case starts from
	// the cold build, and loads a twin from remote.
	open := func(t *testing.T, keepTexts bool, remote string) (*System, *dataset.Dataset) {
		t.Helper()
		segs := t.TempDir()
		entries, err := os.ReadDir(built)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(built, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(segs, e.Name()), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewSystemFromStream(corpus, segs, StreamOptions{KeepTexts: keepTexts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.SegmentStore().Close() })
		twin, err := corpusio.LoadStreamFile(remote, corpusio.StreamLoadOptions{DropTexts: !keepTexts})
		if err != nil {
			t.Fatal(err)
		}
		return s, twin
	}
	round := func(t *testing.T, s *System, api faults.API) ingest.RoundReport {
		t.Helper()
		ing, err := s.NewIngester(ingest.Config{API: api})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ing.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("unchanged remote", func(t *testing.T) {
		s, twin := open(t, true, corpus)
		api := &fetchCounter{API: faults.Wrap(twin.Graph, faults.Config{})}
		rep := round(t, s, api)
		if rep.Full || rep.Catalog != 0 || rep.Adds+rep.Updates+rep.Removes != 0 {
			t.Fatalf("round 0 = %+v, want scoped with an empty delta", rep)
		}
		if n, m := api.users.Load(), api.containers.Load(); n != 0 || m != 0 {
			t.Fatalf("round 0 fetched %d users and %d containers, want none", n, m)
		}
	})

	t.Run("churned remote", func(t *testing.T) {
		s, twin := open(t, true, corpus)
		ingest.NewChurn(twin.Graph, ingest.ChurnConfig{Seed: 5, Adds: 40, Updates: 40, Removes: 20}).Round()
		rep := round(t, s, faults.Wrap(twin.Graph, faults.Config{}))
		if rep.Full || rep.Adds == 0 || rep.Updates == 0 || rep.Removes == 0 {
			t.Fatalf("round 0 = %+v, want scoped with adds, updates and removes", rep)
		}
		rebuilt, err := experiments.Build(experiments.BuildOptions{Dataset: twin})
		if err != nil {
			t.Fatal(err)
		}
		params, _ := ResolveParams()
		for _, q := range s.Queries() {
			got, want := s.inner.Finder.Find(q.Text, params), rebuilt.Finder.Find(q.Text, params)
			if len(got) != len(want) {
				t.Fatalf("query %d: %d experts, the cold rebuild %d", q.ID, len(got), len(want))
			}
			for i := range want {
				if got[i].User != want[i].User || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("query %d rank %d: %+v, the cold rebuild %+v", q.ID, i, got[i], want[i])
				}
			}
		}
		// The graph has moved off its origin: a second ingester holds no
		// cursor.
		if rep := round(t, s, faults.Wrap(twin.Graph, faults.Config{})); rep.FullReason != ingest.NoCursor {
			t.Fatalf("a second ingester's round 0 = %+v, want full (no_cursor)", rep)
		}
	})

	t.Run("twin of another file", func(t *testing.T) {
		// The same corpus, uncompressed: other bytes, so another feed.
		plain := filepath.Join(t.TempDir(), "corpus.stream.json")
		gunzip(t, corpus, plain)
		s, twin := open(t, true, plain)
		if rep := round(t, s, faults.Wrap(twin.Graph, faults.Config{})); rep.FullReason != ingest.ForeignFeed ||
			rep.Adds+rep.Updates+rep.Removes != 0 {
			t.Fatalf("round 0 = %+v, want full (foreign_feed) with an empty delta", rep)
		}
	})

	t.Run("texts dropped", func(t *testing.T) {
		s, twin := open(t, false, corpus)
		if rep := round(t, s, faults.Wrap(twin.Graph, faults.Config{})); rep.FullReason != ingest.NoCursor {
			t.Fatalf("round 0 = %+v, want full (no_cursor)", rep)
		}
	})
}

// gunzip writes the decompressed bytes of src to dst.
func gunzip(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	zr, err := gzip.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, zr); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
