// Package experiments reproduces every table and figure of the
// paper's experimental evaluation (§3) over the synthetic corpus:
//
//	Fig. 5a/5b  dataset distributions
//	Fig. 6      window-size sensitivity
//	Fig. 7      α sensitivity
//	Table 2 / Fig. 8   Twitter friend resources
//	Table 3 / Fig. 9   per-network, per-distance metrics and curves
//	Table 4     per-domain breakdown
//	Fig. 10     per-candidate F1 vs. available resources
//	Fig. 11     differential number of retrieved experts
//
// Each experiment is a function from a System (dataset + analyzed
// index + expert finder) to a result value that renders the paper's
// rows/series as text via its String method.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// System bundles everything the experiments need: the generated
// dataset, the analyzed resource index and the expert finder.
type System struct {
	DS     *dataset.Dataset
	Finder *core.Finder
	// Kept is the number of resources that survived the language
	// filter and were indexed.
	Kept int

	needMu   sync.Mutex
	needByID map[int]analysis.Analyzed
}

// BuildOptions picks one value on each of the three independent axes
// of a build. The zero value generates the default corpus and indexes
// all of it in memory.
type BuildOptions struct {
	// Source: the first that is set of Dataset (a corpus already in
	// memory) and CorpusPath (a corpus file, saved or streamed, with or
	// without chunks); with neither, Config is generated.
	Dataset    *dataset.Dataset
	CorpusPath string
	Config     dataset.Config

	// Slice: with ShardCount > 0 only the documents index.ShardRoute
	// assigns to shard ShardID of ShardCount are analyzed and indexed.
	// Graph, queries and ground truth stay whole, so the shards of a
	// topology agree on them.
	ShardID, ShardCount int

	// Container: always an index.Store configured by Store — with no
	// SegmentDir one that lives in memory and never seals, with one a
	// store rooted there. Store.Workers bounds the parts one find is
	// scored on in parallel in either (rankings are identical for any
	// value). An empty directory is populated, and a build record
	// beside the segments says whether that build finished. A
	// directory that already holds documents is served without
	// analysis once its documents and its build record agree with the
	// corpus and slice it is opened as; otherwise Build refuses it (a
	// *PrebuiltError when the record does not vouch for it).
	SegmentDir string
	Store      index.StoreOptions
	// KeepTexts retains a corpus file's bulk chunk texts; by default
	// each chunk's are dropped once analysed, bounding memory by the
	// base corpus plus the chunks in flight (one analysed, up to two
	// decoded ahead) at any scale.
	KeepTexts bool

	// Analysis, when non-nil, replaces the paper's pipeline options
	// (URL enrichment from the corpus's Web, English only): the
	// ablations.
	Analysis *analysis.Options
}

// builder carries one Build from source to container.
type builder struct {
	o        BuildOptions
	store    *index.Store
	prebuilt bool // store already held documents when opened
	pipe     *analysis.Pipeline
	next     socialgraph.ResourceID // first resource not yet offered to add
	pending  chan error             // the AddBatch add left running; nil when none is
}

// Build is the one way to build a System: it loads or generates the
// corpus, analyzes the chosen slice and indexes it into the chosen
// container. Rankings are bit-identical across sources and containers
// of the same corpus, and a topology's slices merge to the whole
// build's ranking.
func Build(o BuildOptions) (sys *System, err error) {
	if o.ShardCount < 0 || o.ShardID < 0 || o.ShardID >= max(o.ShardCount, 1) {
		return nil, fmt.Errorf("experiments: shard %d/%d outside topology", o.ShardID, o.ShardCount)
	}
	b := &builder{o: o}
	if b.store, err = index.NewStore(o.SegmentDir, o.Store); err != nil {
		return nil, err
	}
	defer func() { err = b.end(err) }()
	b.prebuilt = b.store.NumDocs() > 0
	record := o.SegmentDir != "" && !b.prebuilt
	if record {
		// Before the first AddBatch: a build that dies from here on
		// leaves a store its record refuses.
		if err = b.writeRecord("", false); err != nil {
			return nil, err
		}
	}
	ds, err := b.load()
	if err != nil {
		return nil, err
	}
	if b.prebuilt {
		b.start(ds)
		if err = b.checkPrebuilt(ds.Graph); err == nil {
			err = b.checkRecord(ds.Identity)
		}
	} else {
		// Everything no chunk has fed yet: the whole corpus, or a corpus
		// file's base section when the file has chunks.
		err = b.add(ds, socialgraph.ResourceID(ds.Graph.NumResources()))
	}
	if err == nil {
		err = b.wait()
	}
	if err != nil {
		return nil, err
	}
	// Seal so the build is fully on disk for the next open (a store with
	// no directory never seals).
	if err = b.store.Seal(); err != nil {
		return nil, err
	}
	if o.SegmentDir != "" && b.store.NumDocs() == 0 {
		return nil, fmt.Errorf("experiments: corpus produced an empty index in %s", o.SegmentDir)
	}
	if record {
		if err = b.writeRecord(ds.Identity, true); err != nil {
			return nil, err
		}
	}
	return &System{
		DS:       ds,
		Finder:   core.NewFinder(ds.Graph, b.store, b.pipe, ds.Candidates),
		Kept:     b.store.NumDocs(),
		needByID: make(map[int]analysis.Analyzed),
	}, nil
}

// load resolves the source axis. A corpus file feeds add chunk by
// chunk as it loads, so corpusio can drop the texts of a chunk before
// the next arrives; one with no chunks is added whole once loaded.
func (b *builder) load() (*dataset.Dataset, error) {
	o := b.o
	switch {
	case o.Dataset != nil:
		return o.Dataset, nil
	case o.CorpusPath != "":
		opts := corpusio.StreamLoadOptions{DropTexts: !o.KeepTexts}
		if !b.prebuilt {
			opts.OnChunk = func(d *dataset.Dataset, c *dataset.StreamChunk) error {
				return b.add(d, c.FirstResource+socialgraph.ResourceID(len(c.Resources)))
			}
		}
		return corpusio.LoadStreamFile(o.CorpusPath, opts)
	default:
		return dataset.Generate(o.Config), nil
	}
}

// start creates what needs the corpus's base section to exist: the
// pipeline (its Web).
func (b *builder) start(d *dataset.Dataset) {
	opts := analysis.Options{Web: d.Web}
	if b.o.Analysis != nil {
		opts = *b.o.Analysis
	}
	b.pipe = analysis.New(opts)
}

// inSlice is the slice axis: whether this build indexes document id.
func (b *builder) inSlice(id index.DocID) bool {
	return b.o.ShardCount <= 1 || index.ShardRoute(id, b.o.ShardCount) == b.o.ShardID
}

// add is the only build-time analysis loop: resources [b.next, upto)
// of d that are live and in the slice go through the pipeline over
// GOMAXPROCS workers, and the survivors of the language filter go to
// the container in document order. Tombstoned resources stay out, so
// a cold rebuild of a delta-mutated graph equals the delta-applied
// index.
//
// The AddBatch (memtable, and a seal when one is due) runs on a
// goroutine, so a corpus file's next chunk is decoded and analysed
// while this one is stored. add waits for the previous call's AddBatch
// before starting its own: at most one is pending, they run in
// document order, and each seals where a serial build would. add
// returns the previous AddBatch's error, wait the last one's.
func (b *builder) add(d *dataset.Dataset, upto socialgraph.ResourceID) error {
	if b.pipe == nil {
		b.start(d)
	}
	lo, n := b.next, int(upto-b.next)
	b.next = upto
	results := b.pipe.Batch(n, func(i int) (string, []string, bool) {
		rid := lo + socialgraph.ResourceID(i)
		if d.Graph.ResourceDeleted(rid) || !b.inSlice(rid) {
			return "", nil, false
		}
		r := d.Graph.Resource(rid)
		return r.Text, r.URLs, true
	})
	docs := make([]index.Doc, 0, n)
	for i, res := range results {
		if res.OK {
			docs = append(docs, index.Doc{ID: lo + socialgraph.ResourceID(i), A: res.A})
		}
	}
	if err := b.wait(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- b.store.AddBatch(docs) }()
	b.pending = done
	return nil
}

// wait returns the pending AddBatch's error once it has finished.
func (b *builder) wait() error {
	if b.pending == nil {
		return nil
	}
	err := <-b.pending
	b.pending = nil
	return err
}

// end runs on every return from Build: it waits for the pending
// AddBatch, whose error joins err, and closes the store of a build
// that failed.
func (b *builder) end(err error) error {
	if werr := b.wait(); werr != nil {
		err = errors.Join(err, werr)
	}
	if err != nil {
		b.store.Close()
	}
	return err
}

// checkPrebuilt refuses a reopened segment directory holding a
// document the corpus and slice it is opened as could not have put
// there. Served as-is it would surface later as a coordinator 502 (a
// document answered by two shards) or as a wrong ranking.
func (b *builder) checkPrebuilt(g *socialgraph.Graph) error {
	var err error
	n := g.NumResources()
	b.store.EachDoc(func(id index.DocID) bool {
		switch {
		case int(id) >= n:
			err = fmt.Errorf("holds document %d, the corpus has %d resources", id, n)
		case g.ResourceDeleted(id):
			err = fmt.Errorf("holds document %d, deleted in the corpus", id)
		case !b.inSlice(id):
			err = fmt.Errorf("holds document %d of shard %d/%d, opened as shard %d",
				id, index.ShardRoute(id, b.o.ShardCount), b.o.ShardCount, b.o.ShardID)
		}
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("experiments: segment dir %s was built from another corpus or slice: %w", b.o.SegmentDir, err)
	}
	return nil
}

// BuildSystem generates the dataset for cfg and indexes all of it in
// memory through the full analysis pipeline (URL enrichment and
// English-only filtering active, as in the paper).
func BuildSystem(cfg dataset.Config) *System {
	return mustBuild(BuildOptions{Config: cfg})
}

// mustBuild is Build for the in-memory sources, which cannot fail.
func mustBuild(o BuildOptions) *System {
	sys, err := Build(o)
	if err != nil {
		panic(err)
	}
	return sys
}

var (
	sharedOnce sync.Once
	sharedSys  *System
)

// Shared returns the default full-scale system (seed 1, 40
// candidates, scale 1), built once per process; all experiments and
// benchmarks share it.
func Shared() *System {
	sharedOnce.Do(func() { sharedSys = BuildSystem(dataset.Config{}) })
	return sharedSys
}

// need returns the analyzed form of a query, memoized.
func (s *System) need(q dataset.Query) analysis.Analyzed {
	s.needMu.Lock()
	defer s.needMu.Unlock()
	if a, ok := s.needByID[q.ID]; ok {
		return a
	}
	a := s.Finder.Pipeline().AnalyzeNeed(q.Text)
	s.needByID[q.ID] = a
	return a
}

// randomRanking returns one random selection of k candidates in
// random order, the paper's baseline unit (§3.1: 10 runs of 20
// randomly selected users per query).
func randomRanking(r *rand.Rand, candidates []socialgraph.UserID, k int) []socialgraph.UserID {
	perm := r.Perm(len(candidates))
	if k > len(perm) {
		k = len(perm)
	}
	out := make([]socialgraph.UserID, k)
	for i := 0; i < k; i++ {
		out[i] = candidates[perm[i]]
	}
	return out
}
