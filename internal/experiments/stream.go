package experiments

import (
	"fmt"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// BuildSystemWithSearcher assembles a system around any pre-built
// searcher — typically a disk-backed segment store — skipping the
// analysis pass. kept is the number of indexed resources.
func BuildSystemWithSearcher(ds *dataset.Dataset, ix index.Searcher, kept int) *System {
	pipe := analysis.New(analysis.Options{Web: ds.Web})
	return &System{
		DS:       ds,
		Finder:   core.NewFinder(ds.Graph, ix, pipe, ds.Candidates),
		Kept:     kept,
		needByID: make(map[int]analysis.Analyzed),
	}
}

// StreamBuildOptions configures BuildSystemFromStream.
type StreamBuildOptions struct {
	// FlushDocs / MaxSegments / ForceStream configure the segment
	// store (zero selects index.StoreOptions defaults).
	FlushDocs   int
	MaxSegments int
	ForceStream bool
	// KeepTexts retains bulk resource texts in memory after indexing.
	// The default drops them chunk by chunk, bounding memory by the
	// base corpus plus one chunk regardless of corpus scale.
	KeepTexts bool
}

// BuildSystemFromStream loads a stream corpus (written by
// corpusio.StreamWriter / `datagen -stream`) and serves it from a
// disk-backed segment store rooted at segmentDir. When the store
// already holds documents it is served as-is — the fast path that
// skips analysis entirely; an empty store is populated by analyzing
// the corpus chunk by chunk, sealing segments as the memtable fills,
// so peak memory stays bounded at any scale. Rankings are
// bit-identical to a monolithic in-memory build of the same corpus.
func BuildSystemFromStream(corpusPath, segmentDir string, o StreamBuildOptions) (*System, error) {
	store, err := index.NewStore(segmentDir, index.StoreOptions{
		FlushDocs:   o.FlushDocs,
		MaxSegments: o.MaxSegments,
		ForceStream: o.ForceStream,
	})
	if err != nil {
		return nil, err
	}
	prebuilt := store.NumDocs() > 0

	var pipe *analysis.Pipeline
	var indexed socialgraph.ResourceID
	kept := 0
	// index [indexed, upto) through the analysis pipeline into the
	// store, fanning analysis out over GOMAXPROCS workers.
	process := func(d *dataset.Dataset, upto socialgraph.ResourceID) error {
		if pipe == nil {
			pipe = analysis.New(analysis.Options{Web: d.Web})
		}
		lo := indexed
		indexed = upto
		n := int(upto - lo)
		if n <= 0 {
			return nil
		}
		results := pipe.Batch(n, func(i int) (string, []string, bool) {
			rid := lo + socialgraph.ResourceID(i)
			if d.Graph.ResourceDeleted(rid) {
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
		kept += len(docs)
		return store.AddBatch(docs)
	}

	opts := corpusio.StreamLoadOptions{DropTexts: prebuilt && !o.KeepTexts}
	if !prebuilt {
		opts.OnChunk = func(d *dataset.Dataset, c *dataset.StreamChunk) error {
			end := c.FirstResource + socialgraph.ResourceID(len(c.Resources))
			if err := process(d, end); err != nil {
				return err
			}
			if !o.KeepTexts {
				d.BlankChunkTexts(c)
			}
			return nil
		}
	}
	ds, err := corpusio.LoadStreamFile(corpusPath, opts)
	if err != nil {
		store.Close()
		return nil, err
	}
	if !prebuilt {
		// Base-only streams (or a trailing base section) still need
		// indexing; seal so the build is fully on disk.
		if err := process(ds, socialgraph.ResourceID(ds.Graph.NumResources())); err != nil {
			store.Close()
			return nil, err
		}
		if err := store.Seal(); err != nil {
			store.Close()
			return nil, err
		}
	} else {
		kept = store.NumDocs()
	}
	if store.NumDocs() == 0 {
		store.Close()
		return nil, fmt.Errorf("experiments: stream corpus %s produced an empty index", corpusPath)
	}
	return BuildSystemWithSearcher(ds, store, kept), nil
}
