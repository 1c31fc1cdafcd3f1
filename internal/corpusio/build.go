package corpusio

import (
	"expertfind/internal/analysis"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// BuildShardedIndex analyzes every resource of the graph through pipe
// and indexes the survivors of the language filter into a sharded
// index. Both phases parallelize: analysis fans out over GOMAXPROCS
// workers (analysis.Pipeline.Batch), then each shard is populated
// by its own single writer via AddBatch, so no lock is ever
// contended. shards <= 0 selects GOMAXPROCS.
//
// The returned kept count is the number of indexed resources. Output
// is deterministic: shard routing is a pure function of the document
// id and scoring is insertion-order invariant, so any worker
// interleaving builds an equivalent index.
func BuildShardedIndex(g *socialgraph.Graph, pipe *analysis.Pipeline, shards int) (*index.Sharded, int) {
	return BuildShardSlice(g, pipe, shards, 0, 1)
}

// BuildShardSlice is BuildShardedIndex restricted to one slice of a
// scatter-gather topology: only the resources that index.ShardRoute
// assigns to shard shardID of shardCount are analyzed and indexed, so
// a shard process pays the analysis and memory cost of its slice
// alone. shardCount <= 1 builds the whole corpus. The slice's postings
// are identical to the corresponding subset of a full build — the
// route is a pure function of the document id — which is what lets
// the coordinator's merged rankings reproduce single-process output.
func BuildShardSlice(g *socialgraph.Graph, pipe *analysis.Pipeline, shards, shardID, shardCount int) (*index.Sharded, int) {
	// Tombstoned resources stay out of the index, so a cold rebuild of
	// a delta-mutated graph matches the delta-applied index exactly.
	results := pipe.Batch(g.NumResources(), func(i int) (string, []string, bool) {
		rid := socialgraph.ResourceID(i)
		if shardCount > 1 && index.ShardRoute(rid, shardCount) != shardID || g.ResourceDeleted(rid) {
			return "", nil, false
		}
		r := g.Resource(rid)
		return r.Text, r.URLs, true
	})
	docs := make([]index.Doc, 0, len(results))
	for i, res := range results {
		if res.OK {
			docs = append(docs, index.Doc{ID: socialgraph.ResourceID(i), A: res.A})
		}
	}
	ix := index.NewSharded(shards)
	ix.AddBatch(docs)
	return ix, len(docs)
}
