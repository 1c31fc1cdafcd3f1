package index

import (
	"io"
	"runtime"
	"strconv"
	"sync"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
	"expertfind/internal/telemetry"
)

// Shard-path metrics: where each query's matching work lands and how
// long every shard takes, so a skewed shard shows up as a fat
// histogram rather than an invisible straggler.
var (
	mShardGauge = telemetry.Default().Gauge(
		"expertfind_index_shards",
		"Shard count of the most recently constructed sharded index.")
	mShardScoreSeconds = telemetry.Default().HistogramVec(
		"expertfind_index_shard_score_seconds",
		"Per-shard wall time of one Score evaluation.", nil, "shard")
)

// Doc pairs a resource id with its analyzed form: the unit of bulk
// indexing.
type Doc struct {
	ID DocID
	A  analysis.Analyzed
}

// shard is one lock-guarded partition of the document space. The
// inner Index stays lock-free; all synchronization lives here.
type shard struct {
	mu sync.RWMutex
	ix *Index
	// scoreSeconds is this shard's series of the per-shard histogram,
	// resolved once at construction.
	scoreSeconds *telemetry.Histogram
}

// Sharded is an inverted index split into document-hash shards behind
// the same API as Index. Building routes each document to exactly one
// shard; scoring plans the query once against global collection
// statistics, evaluates every shard concurrently on a bounded worker
// pool, and merges the per-shard rankings with the deterministic
// (descending score, ascending DocID) tie-break. Results are
// byte-identical to a monolithic Index over the same documents, for
// any shard count.
//
// Unlike Index, Sharded is safe for concurrent use: Add/AddBatch take
// a per-shard write lock, queries take read locks. A Score overlapping
// a mutation sees some consistent-per-shard interleaving of the two.
// ApplyDelta is stronger: it holds the collection-wide write lock, so
// queries running through the whole-collection entry points (Score,
// ScoreTopK, ScoreStatsTopK, Flatten/WriteTo) observe either the
// entire delta or none of it — never a torn mix of plan statistics
// and postings.
type Sharded struct {
	// global orders whole-collection operations against deltas:
	// ApplyDelta write-holds it, the Score entry points and
	// Flatten/WriteTo read-hold it for their full duration, and the
	// incremental mutators (Add/AddBatch) read-hold it so they keep
	// running concurrently with each other. Lock order is always
	// global before shard.
	global  sync.RWMutex
	shards  []*shard
	workers int
}

// NewSharded returns an empty index with n document-hash shards;
// n <= 0 selects GOMAXPROCS. The scoring worker pool is bounded by
// min(n, GOMAXPROCS at construction).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Sharded{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{ix: New(), scoreSeconds: mShardScoreSeconds.With(strconv.Itoa(i))}
	}
	s.workers = runtime.GOMAXPROCS(0)
	if s.workers > n {
		s.workers = n
	}
	mShardGauge.Set(float64(n))
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardRoute routes a document to one of n shards. The mix function
// (splitmix64 finalizer) decorrelates the route from sequential id
// patterns; it is a pure function of (id, n), so the layout is stable
// across processes — the scatter-gather serving layer relies on this
// to split one corpus across shard processes and know, without
// coordination, which process owns any document.
func ShardRoute(d DocID, n int) int {
	h := uint64(uint32(d))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// shardFor routes a document to its in-process shard via ShardRoute.
func (s *Sharded) shardFor(d DocID) int {
	return ShardRoute(d, len(s.shards))
}

// Add indexes an analyzed resource under id, locking only the one
// shard the document routes to. Adding the same id twice panics, as
// with Index.Add.
func (s *Sharded) Add(id DocID, a analysis.Analyzed) {
	s.global.RLock()
	defer s.global.RUnlock()
	sh := s.shards[s.shardFor(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ix.Add(id, a)
}

// DocUpdate pairs a document with its previously indexed analyzed
// form and its replacement: the unit of in-place change in a Delta.
type DocUpdate struct {
	ID       DocID
	Old, New analysis.Analyzed
}

// Delta is one atomic batch of index mutations. Removes carry the
// analyzed form the document was added under, exactly like
// Index.Remove.
type Delta struct {
	Adds    []Doc
	Updates []DocUpdate
	Removes []Doc
}

// Empty reports whether the delta carries no mutations.
func (d Delta) Empty() bool {
	return len(d.Adds) == 0 && len(d.Updates) == 0 && len(d.Removes) == 0
}

// ApplyDelta applies removes, updates and adds as one atomic step
// under the collection-wide write lock: a concurrent query through the
// Score entry points ranks against either the pre-delta or the
// post-delta collection, never a mix. Per-shard locks are still taken
// (the fine-grained stats readers do not hold the global lock).
func (s *Sharded) ApplyDelta(d Delta) {
	s.global.Lock()
	defer s.global.Unlock()
	for _, r := range d.Removes {
		sh := s.shards[s.shardFor(r.ID)]
		sh.mu.Lock()
		sh.ix.Remove(r.ID, r.A)
		sh.mu.Unlock()
	}
	for _, u := range d.Updates {
		sh := s.shards[s.shardFor(u.ID)]
		sh.mu.Lock()
		sh.ix.Update(u.ID, u.Old, u.New)
		sh.mu.Unlock()
	}
	for _, a := range d.Adds {
		sh := s.shards[s.shardFor(a.ID)]
		sh.mu.Lock()
		sh.ix.Add(a.ID, a.A)
		sh.mu.Unlock()
	}
}

// AddBatch bulk-indexes docs with one goroutine per shard: documents
// are bucketed by route first, then every shard is populated by a
// single writer, so the build parallelizes without lock contention.
func (s *Sharded) AddBatch(docs []Doc) {
	s.global.RLock()
	defer s.global.RUnlock()
	buckets := make([][]Doc, len(s.shards))
	for _, d := range docs {
		i := s.shardFor(d.ID)
		buckets[i] = append(buckets[i], d)
	}
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if len(buckets[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, docs []Doc) {
			defer wg.Done()
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for _, d := range docs {
				sh.ix.Add(d.ID, d.A)
			}
		}(sh, buckets[i])
	}
	wg.Wait()
}

// Flatten merges every shard into one monolithic Index (a copy; the
// shards are not aliased). It holds the collection-wide read lock, so
// the copy is a consistent snapshot with respect to ApplyDelta.
func (s *Sharded) Flatten() *Index {
	s.global.RLock()
	defer s.global.RUnlock()
	out := New()
	for _, sh := range s.shards {
		sh.mu.RLock()
		out.Merge(sh.ix)
		sh.mu.RUnlock()
	}
	return out
}

// WriteTo serializes the index as one binary segment, identical to
// the segment the equivalent monolithic Index would write (the codec
// sorts everything, so shard layout leaves no trace).
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	return s.Flatten().WriteTo(w)
}

// NumDocs returns the number of indexed resources across all shards.
func (s *Sharded) NumDocs() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.ix.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Has reports whether id is indexed.
func (s *Sharded) Has(id DocID) bool {
	sh := s.shards[s.shardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.ix.Has(id)
}

// DocFreq returns the number of resources containing the term,
// summed across shards.
func (s *Sharded) DocFreq(term string) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.ix.DocFreq(term)
		sh.mu.RUnlock()
	}
	return n
}

// EntityFreq returns the number of resources mentioning the entity,
// summed across shards.
func (s *Sharded) EntityFreq(e kb.EntityID) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.ix.EntityFreq(e)
		sh.mu.RUnlock()
	}
	return n
}

// Score implements Searcher. Output is byte-identical to the
// monolithic index over the same documents.
func (s *Sharded) Score(need analysis.Analyzed, alpha float64) []ScoredDoc {
	return s.ScoreStatsTopK(need, alpha, nil, 0, nil)
}

// ScoreTopK implements Searcher.
func (s *Sharded) ScoreTopK(need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	return s.ScoreStatsTopK(need, alpha, nil, k, accept)
}

// ScoreStatsTopK implements Searcher: the live shards are the parts,
// scored concurrently on the index's worker pool. Each shard runs its
// own pruned evaluation to a local top k — a document in the global
// top k is necessarily in its own shard's top k, so the merged and
// truncated ranking is byte-identical to the monolithic one.
func (s *Sharded) ScoreStatsTopK(need analysis.Analyzed, alpha float64, st CollectionStats, k int, accept func(DocID) bool) []ScoredDoc {
	s.global.RLock()
	defer s.global.RUnlock()
	if st == nil {
		st = s
	}
	plan := planQuery(need, alpha, st)
	return searchParts(plan, s.liveParts(plan, accept), k, s.workers)
}

// liveParts returns the shards holding at least one posting of some
// planned dimension — the actual work items of this query. Sizing the
// worker pool off this list (rather than the total shard count) keeps
// a narrow query — a single rare term, say — from spinning up a full
// pool of workers that immediately find nothing to do.
func (s *Sharded) liveParts(plan queryPlan, accept func(DocID) bool) []part {
	live := make([]part, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.RLock()
		hit := false
		for _, pl := range plan {
			if sh.ix.freq(pl.key) > 0 {
				hit = true
				break
			}
		}
		sh.mu.RUnlock()
		if hit {
			live = append(live, part{src: sh.ix, mu: &sh.mu, accept: accept, seconds: sh.scoreSeconds})
		}
	}
	return live
}
