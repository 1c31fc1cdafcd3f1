package index

import (
	"math"
	"sync"
	"sync/atomic"
)

// The partitioned search, written once. Index and Store both answer a
// need the same way: plan the query once against the
// collection-global statistics, score every part — a disjoint slice of
// the documents — with the one scorer (scorePlanTopK), and k-way merge
// the per-part rankings under (score desc, doc asc). k <= 0 is the
// exhaustive evaluation; accept is the only document filter. Parts hold
// disjoint documents and the plan fixes every document's float64
// addition chain, so the merged ranking is byte-identical for any
// partitioning and any worker bound.

// listSource yields the posting lists one part contributes to a plan,
// by dictionary key: an in-memory Index copies out its list's header, a
// sealed segment binds a view of its file.
type listSource interface {
	// list binds the list under k into l — l.count is 0 where src holds
	// no postings under k — appending any skip entries it has to parse
	// to arena, and returns the arena. l.blocks may alias the arena, so
	// l is valid while the arena's entries are not reused.
	list(k listKey, l *postingList, arena []blockMeta) []blockMeta
}

// docRange is the half-open doc-id range [lo, hi) a part covers. It is
// int64 so that one range, allDocs, holds every DocID.
type docRange struct{ lo, hi int64 }

// allDocs is the range of a part that is a whole component.
var allDocs = docRange{math.MinInt32, math.MaxInt32 + 1}

func (r docRange) has(d DocID) bool { return int64(d) >= r.lo && int64(d) < r.hi }

// part is one disjoint slice of a collection as searchParts scores it.
type part struct {
	src listSource
	// span restricts the part to src's documents in a doc-id range:
	// allDocs for a whole component, narrower for one range of a
	// component cut across workers (Store.partsLocked).
	span docRange
	// accept restricts scoring to accepted documents; nil accepts all.
	// A store segment narrows the caller's filter by its tombstones.
	accept func(DocID) bool
}

// cut splits the part at doc id at, which must lie in its span: the
// documents below at, and the rest.
func (p part) cut(at DocID) (below, rest part) {
	below, rest = p, p
	below.span.hi, rest.span.lo = int64(at), int64(at)
	return below, rest
}

// planMass is the number of postings plan names in c, read off its
// dictionary: a component of mass 0 is no part.
func planMass(c component, plan queryPlan) int {
	m := 0
	for _, pl := range plan {
		m += c.freq(pl.key)
	}
	return m
}

// score runs the one scorer over the part under the query's θ floor.
func (p *part) score(plan queryPlan, k int, floor *thetaFloor) ([]ScoredDoc, topkCounters) {
	return scorePlanTopK(p.src, plan, k, p.accept, p.span, floor)
}

// searchParts scores a resolved plan over parts on at most workers
// concurrent goroutines (<= 1 scores them in order on the caller's),
// merges to k and records the query's work counters. The parts share
// one θ floor (thetaFloor), so each prunes from what the parts scored
// before or beside it have proved. The caller only
// waits: a goroutine it spawned and then kept running beside would sit
// in its processor's next-to-run slot, which an idle processor steals
// from only after a back-off that costs tens of microseconds. A part
// that panics — a segment read that fails — has its panic raised again
// on the caller once every worker has stopped, so the caller's deferred
// unlocks and recovery run as they would without the pool.
func searchParts(plan queryPlan, parts []part, k, workers int) []ScoredDoc {
	ranked := make([][]ScoredDoc, len(parts))
	counts := make([]topkCounters, len(parts))
	if workers = min(workers, len(parts)); workers <= 1 {
		var floor thetaFloor
		shared := &floor
		if len(parts) == 1 { // a lone part's own θ is the floor
			shared = nil
		}
		for i := range parts {
			ranked[i], counts[i] = parts[i].score(plan, k, shared)
		}
	} else {
		// The work counter and the θ floor, shared by the workers.
		var q struct {
			next  atomic.Int64
			floor thetaFloor
		}
		var wg sync.WaitGroup
		caught := make([]any, workers)
		wg.Add(workers)
		for w := range workers {
			go func() {
				defer wg.Done()
				defer func() { caught[w] = recover() }()
				for {
					i := int(q.next.Add(1) - 1)
					if i >= len(parts) {
						return
					}
					ranked[i], counts[i] = parts[i].score(plan, k, &q.floor)
				}
			}()
		}
		wg.Wait()
		for _, r := range caught {
			if r != nil {
				panic(r)
			}
		}
	}

	out := mergeScored(ranked, k)
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
// sorted by scoredCmp, stopping after k (k <= 0: all). Parts hold
// disjoint documents, so the comparator is a total order and the merge
// is the unique global ranking — no re-sort, no nondeterminism. It
// consumes lists: each element is advanced past what it contributed.
func mergeScored(lists [][]ScoredDoc, k int) []ScoredDoc {
	total, nonEmpty, last := 0, 0, 0
	for i, l := range lists {
		if len(l) > 0 {
			total += len(l)
			nonEmpty++
			last = i
		}
	}
	if k > 0 && total > k {
		total = k
	}
	if nonEmpty == 1 {
		return lists[last][:total]
	}
	out := make([]ScoredDoc, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best == -1 || ranksAbove(l[0], lists[best][0])) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}
