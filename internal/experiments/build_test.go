package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// writeStream generates cfg's corpus into a stream file under dir.
func writeStream(t *testing.T, dir string, cfg dataset.StreamConfig) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("corpus-%v.stream.json.gz", cfg.Scale))
	if _, err := corpusio.WriteStreamFile(path, cfg, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// build is Build failing the test, with a store container closed at
// cleanup.
func build(t *testing.T, o BuildOptions) *System {
	t.Helper()
	sys, err := Build(o)
	if err != nil {
		t.Fatalf("Build(%+v): %v", o, err)
	}
	if st, ok := sys.Finder.Index().(*index.Store); ok {
		t.Cleanup(func() { st.Close() })
	}
	return sys
}

func assertExpertsBitIdentical(t *testing.T, label string, got, want []core.ExpertScore) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d experts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].User != want[i].User || got[i].Resources != want[i].Resources ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// matrixParams are the two query shapes every cell is checked under:
// bounded by the default window and by a tighter top-k.
var matrixParams = []core.Params{
	{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
	{TopK: 10, Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
}

// assertSameFind requires sys to rank every evaluation query exactly
// as ref does.
func assertSameFind(t *testing.T, label string, sys, ref *System) {
	t.Helper()
	if sys.Kept != ref.Kept {
		t.Fatalf("%s: kept %d docs, want %d", label, sys.Kept, ref.Kept)
	}
	for _, q := range ref.DS.Queries {
		for _, p := range matrixParams {
			got, _ := sys.Finder.Find(context.Background(), q.Text, p)
			want, _ := ref.Finder.Find(context.Background(), q.Text, p)
			assertExpertsBitIdentical(t, fmt.Sprintf("%s: query %d k=%d", label, q.ID, p.TopK), got, want)
		}
	}
}

// assertSlicesMergeToWhole plays the coordinator over the slices of
// one topology: summed NeedStats, k-way-merged ShardMatches and
// RankMerged must reproduce the whole build's own answers bit for bit.
func assertSlicesMergeToWhole(t *testing.T, label string, parts []*System, whole *System) {
	t.Helper()
	kept := 0
	for _, s := range parts {
		kept += s.Kept
	}
	if kept != whole.Kept {
		t.Fatalf("%s: slices hold %d docs, the whole build %d", label, kept, whole.Kept)
	}
	ctx := context.Background()
	for _, q := range whole.DS.Queries {
		stats := make([]index.GlobalStats, len(parts))
		for i, s := range parts {
			stats[i] = s.Finder.NeedStats(q.Text)
		}
		global := index.SumStats(stats...)
		if want := whole.Finder.NeedStats(q.Text); !reflect.DeepEqual(global, want) {
			t.Fatalf("%s: query %d: summed stats %+v, whole build %+v", label, q.ID, global, want)
		}
		for _, p := range matrixParams {
			var merged []core.ShardMatch
			for _, s := range parts {
				merged = append(merged, s.Finder.ShardMatches(ctx, q.Text, p, global)...)
			}
			slices.SortFunc(merged, func(a, b core.ShardMatch) int {
				if a.Score != b.Score {
					if a.Score > b.Score {
						return -1
					}
					return 1
				}
				return int(a.Doc) - int(b.Doc)
			})
			if k := p.MatchBound(); k > 0 && len(merged) > k {
				merged = merged[:k]
			}
			if wantM := whole.Finder.ShardMatches(ctx, q.Text, p, nil); !reflect.DeepEqual(merged, wantM) {
				t.Fatalf("%s: query %d k=%d: merged matches diverge from the whole build:\n got %v\nwant %v",
					label, q.ID, p.TopK, merged, wantM)
			}
			want, _ := whole.Finder.Find(ctx, q.Text, p)
			assertExpertsBitIdentical(t, fmt.Sprintf("%s: query %d k=%d RankMerged", label, q.ID, p.TopK),
				core.RankMerged(merged, p), want)
		}
	}
}

// TestBuildMatrix builds cells of source × slice × container and
// requires one answer: whole builds rank bit-identically whatever the
// source and container, and every cell's two slices merge to its whole
// build. Two corpora: scale 0.05, where the generated corpus, a saved
// file and a streamed file hold the same corpus (at Scale ≤ 1 a stream
// has no chunks, like a saved file), and a chunked stream just past
// scale 1, whose store cells are fed chunk by chunk and seal several
// segments.
func TestBuildMatrix(t *testing.T) {
	dir := t.TempDir()
	cell := 0
	// onStore gives a cell its own fresh segment directory.
	onStore := func(o BuildOptions, flush int) BuildOptions {
		cell++
		o.SegmentDir = filepath.Join(dir, fmt.Sprintf("segments-%d", cell))
		o.Store = index.StoreOptions{FlushDocs: flush, MaxSegments: 3}
		return o
	}
	sliced := func(o BuildOptions, id int) BuildOptions {
		o.ShardID, o.ShardCount = id, 2
		return o
	}

	t.Run("scale0.05", func(t *testing.T) {
		cfg := dataset.Config{Seed: 6, Scale: 0.05}
		generated := BuildOptions{Config: cfg}
		ref := build(t, generated)
		saved := BuildOptions{CorpusPath: filepath.Join(dir, "corpus.json.gz")}
		if err := corpusio.SaveFile(ref.DS, saved.CorpusPath); err != nil {
			t.Fatal(err)
		}
		stream := BuildOptions{CorpusPath: writeStream(t, dir, dataset.StreamConfig{Config: cfg})}

		var onDisk [3]*System // the last cell's whole build and slices
		for _, c := range []struct {
			name string
			opts func() BuildOptions
		}{
			{"generated", func() BuildOptions { return generated }},
			{"saved", func() BuildOptions { return saved }},
			{"generated × store", func() BuildOptions { return onStore(generated, 300) }},
			{"saved × store", func() BuildOptions { return onStore(saved, 300) }},
			{"stream × store", func() BuildOptions { return onStore(stream, 300) }},
		} {
			whole := build(t, c.opts())
			assertSameFind(t, c.name, whole, ref)
			s0, s1 := build(t, sliced(c.opts(), 0)), build(t, sliced(c.opts(), 1))
			assertSlicesMergeToWhole(t, c.name, []*System{s0, s1}, whole)
			onDisk = [3]*System{whole, s0, s1}
		}

		// The reopen path: a populated directory is served without
		// analysis, as the whole corpus or as the slice it was built as.
		reopen := func(sys *System, o BuildOptions) *System {
			store := sys.Finder.Index().(*index.Store)
			store.Close()
			o.SegmentDir = store.Dir()
			reopened := build(t, o)
			if st := reopened.Finder.Index().(*index.Store).Status(); st.Seals != 0 {
				t.Fatalf("reopened store sealed %d times, want a prebuilt open", st.Seals)
			}
			return reopened
		}
		assertSameFind(t, "reopened", reopen(onDisk[0], stream), ref)
		assertSlicesMergeToWhole(t, "reopened slice",
			[]*System{reopen(onDisk[1], sliced(stream, 0)), onDisk[2]}, ref)
	})

	t.Run("chunked", func(t *testing.T) {
		cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 6, Scale: 1.05}, ChunkDocs: 9000}
		stream := BuildOptions{CorpusPath: writeStream(t, dir, cfg)}
		ds, err := corpusio.LoadStreamFile(stream.CorpusPath, corpusio.StreamLoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref := build(t, BuildOptions{Dataset: ds})

		cells := []*System{build(t, onStore(stream, 4000)),
			build(t, sliced(onStore(stream, 4000), 0)), build(t, sliced(onStore(stream, 4000), 1))}
		for i, sys := range cells {
			if st := sys.Finder.Index().(*index.Store).Status(); st.Seals < 2 {
				t.Fatalf("cell %d sealed %d segments, want ≥ 2 (FlushDocs 4000)", i, st.Seals)
			}
		}
		assertSameFind(t, "stream", cells[0], ref)
		assertSlicesMergeToWhole(t, "stream", cells[1:], ref)
		// Fed chunk by chunk into memory, texts dropped as it goes.
		assertSameFind(t, "stream in memory", build(t, stream), ref)
	})
}

// A reopened segment directory is checked against what it is opened
// as: another slice's, the whole corpus's or a larger corpus's
// documents refuse the open, naming the directory and a document.
func TestBuildRefusesForeignSegmentDir(t *testing.T) {
	dir := t.TempDir()
	small := BuildOptions{CorpusPath: writeStream(t, dir, dataset.StreamConfig{Config: dataset.Config{Seed: 6, Scale: 0.05}})}
	large := BuildOptions{CorpusPath: writeStream(t, dir, dataset.StreamConfig{Config: dataset.Config{Seed: 6, Scale: 0.1}})}
	populate := func(name string, o BuildOptions) string {
		o.SegmentDir = filepath.Join(dir, name)
		sys, err := Build(o)
		if err != nil {
			t.Fatal(err)
		}
		sys.Finder.Index().(*index.Store).Close()
		return o.SegmentDir
	}
	slice := func(o BuildOptions, id int) BuildOptions {
		o.ShardID, o.ShardCount = id, 2
		return o
	}
	slice0 := populate("slice0", slice(small, 0))
	whole := populate("whole", small)
	big := populate("big", large)

	for _, c := range []struct {
		name string
		dir  string
		o    BuildOptions
		want string
	}{
		{"slice 0 opened as slice 1", slice0, slice(small, 1), "of shard 0/2, opened as shard 1"},
		{"whole corpus opened as a slice", whole, slice(small, 0), "of shard 1/2, opened as shard 0"},
		{"larger corpus's dir under the smaller stream", big, small, "the corpus has"},
	} {
		c.o.SegmentDir = c.dir
		_, err := Build(c.o)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.dir) || !strings.Contains(msg, "holds document") ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want the dir, the offending document and %q", c.name, msg, c.want)
		}
	}
	// What each directory was built as still opens.
	for d, o := range map[string]BuildOptions{slice0: slice(small, 0), whole: small, big: large} {
		o.SegmentDir = d
		build(t, o)
	}
}

// assertPrebuiltRefused requires err to be the build record's refusal
// of dir, giving a reason that contains want.
func assertPrebuiltRefused(t *testing.T, err error, dir, want string) {
	t.Helper()
	var refused *PrebuiltError
	if !errors.As(err, &refused) || refused.Dir != dir || !strings.Contains(err.Error(), dir) ||
		!strings.Contains(refused.Reason, want) {
		t.Fatalf("reopen: err = %v, want a PrebuiltError naming %s and %q", err, dir, want)
	}
}

// A build that dies after a seal leaves a store its build record
// refuses: a chunked corpus file cut after its second chunk fails the
// build once segments are on disk, and reopening the directory with
// the whole file is refused, naming it, instead of serving part of the
// index.
func TestBuildRefusesUnfinishedSegmentDir(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "corpus.stream.json") // uncompressed: one record a line
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: 6, Scale: 1.05}, ChunkDocs: 4000}
	if _, err := corpusio.WriteStreamFile(whole, cfg, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n")) // header, base, chunks, trailer
	if len(lines) < 6 {
		t.Fatalf("the corpus file has %d lines, want at least 3 chunks", len(lines))
	}
	cut := filepath.Join(dir, "cut.stream.json")
	if err := os.WriteFile(cut, bytes.Join(lines[:4], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	o := BuildOptions{CorpusPath: cut, SegmentDir: filepath.Join(dir, "segments"), Store: index.StoreOptions{FlushDocs: 3000}}
	if _, err := Build(o); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("build from the cut file: err = %v, want a truncation", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(o.SegmentDir, "seg-*")); len(segs) == 0 {
		t.Fatal("the cut build sealed no segment before it failed")
	}
	o.CorpusPath = whole
	_, err = Build(o)
	assertPrebuiltRefused(t, err, o.SegmentDir, "did not finish")
}

// A store built from one corpus refuses a second corpus of equal
// counts that differs in one text: checkPrebuilt alone would pass it.
func TestBuildRefusesSegmentDirOfAnotherCorpus(t *testing.T) {
	dir := t.TempDir()
	ds := dataset.Generate(dataset.Config{Seed: 6, Scale: 0.05})
	first, second := filepath.Join(dir, "first.json.gz"), filepath.Join(dir, "second.json.gz")
	if err := corpusio.SaveFile(ds, first); err != nil {
		t.Fatal(err)
	}
	id := socialgraph.ResourceID(ds.Graph.NumResources() - 1)
	ds.Graph.SetResourceText(id, ds.Graph.Resource(id).Text+" and swimming")
	if err := corpusio.SaveFile(ds, second); err != nil {
		t.Fatal(err)
	}

	o := BuildOptions{CorpusPath: first, SegmentDir: filepath.Join(dir, "segments")}
	build(t, o).Finder.Index().(*index.Store).Close()
	o.CorpusPath = second
	_, err := Build(o)
	assertPrebuiltRefused(t, err, o.SegmentDir, "built from corpus")
	// The corpus it was built from still opens it.
	o.CorpusPath = first
	build(t, o)
}

func TestBuildRefusesShardOutsideTopology(t *testing.T) {
	for _, c := range [][2]int{{1, 0}, {-1, 2}, {2, 2}, {0, -1}} {
		if _, err := Build(BuildOptions{Config: dataset.Config{Scale: 0.05}, ShardID: c[0], ShardCount: c[1]}); err == nil {
			t.Errorf("shard %d/%d accepted", c[0], c[1])
		}
	}
}
