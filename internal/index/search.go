package index

import (
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/telemetry"
)

// The partitioned search, written once. Index, Sharded and Store all
// answer a need the same way: plan the query once against the
// collection-global statistics, score every part — a disjoint slice of
// the documents — with the one scorer (scorePlanTopK), and k-way merge
// the per-part rankings under (score desc, doc asc). k <= 0 is the
// exhaustive evaluation; accept is the only document filter. Parts hold
// disjoint documents and the plan fixes every document's float64
// addition chain, so the merged ranking is byte-identical for any
// partitioning and any worker bound.

// listSource yields the posting lists one part contributes to a plan,
// by dictionary key (nil where it holds none): an in-memory Index looks
// them up, a sealed segment hands out views of its file.
type listSource interface {
	list(k listKey) *postingList
}

// part is one disjoint slice of a collection as searchParts scores it.
type part struct {
	src listSource
	// mu, when non-nil, is read-held while the part is viewed and
	// scored (a shard's lock); nil when the caller's own lock already
	// covers the part.
	mu *sync.RWMutex
	// accept restricts scoring to accepted documents; nil accepts all.
	// A store segment narrows the caller's filter by its tombstones.
	accept func(DocID) bool
	// seconds, when non-nil, observes the part's scoring wall time.
	seconds *telemetry.Histogram
}

// searchParts scores a resolved plan over parts on at most workers
// concurrent goroutines (<= 1 scores them in order on the caller's),
// merges, truncates to k and records the query's work counters.
func searchParts(plan queryPlan, parts []part, k, workers int) []ScoredDoc {
	ranked := make([][]ScoredDoc, len(parts))
	counts := make([]topkCounters, len(parts))
	score := func(i int) {
		p := &parts[i]
		var t0 time.Time
		if p.seconds != nil {
			t0 = time.Now()
		}
		if p.mu != nil {
			p.mu.RLock()
		}
		ranked[i], counts[i] = scorePlanTopK(p.src, plan, k, p.accept)
		if p.mu != nil {
			p.mu.RUnlock()
		}
		if p.seconds != nil {
			p.seconds.ObserveSince(t0)
		}
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers <= 1 {
		for i := range parts {
			score(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(parts) {
						return
					}
					score(i)
				}
			}()
		}
		wg.Wait()
	}

	out := mergeScored(ranked)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	var c topkCounters
	for _, ci := range counts {
		c.add(ci)
	}
	mQueries.Inc()
	mPostings.Add(float64(c.postings))
	mMatches.Add(float64(len(out)))
	mPrunedDocs.Add(float64(c.pruned))
	mBlocksSkipped.Add(float64(c.blocksSkipped))
	return out
}

// scoredCmp is the one ranking comparator: descending score, ties
// broken by ascending DocID. Document IDs are unique, so it is a total
// order and every sort/merge over it is deterministic.
func scoredCmp(a, b ScoredDoc) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	return 0
}

// mergeScored k-way merges per-part rankings that are each already
// sorted by scoredCmp. Parts hold disjoint documents, so the
// comparator is a total order and the merge is the unique global
// ranking — no re-sort, no nondeterminism.
func mergeScored(lists [][]ScoredDoc) []ScoredDoc {
	nonEmpty := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
			total += len(l)
		}
	}
	if len(nonEmpty) == 1 {
		return nonEmpty[0]
	}
	out := make([]ScoredDoc, 0, total)
	heads := make([]int, len(nonEmpty))
	for len(out) < total {
		best := -1
		for i, l := range nonEmpty {
			if heads[i] >= len(l) {
				continue
			}
			if best == -1 || scoredCmp(l[heads[i]], nonEmpty[best][heads[best]]) < 0 {
				best = i
			}
		}
		out = append(out, nonEmpty[best][heads[best]])
		heads[best]++
	}
	return out
}
