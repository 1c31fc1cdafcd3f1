package index

import (
	"math"
	"sort"

	"expertfind/internal/telemetry"
)

// MaxScore-style top-k pruning (term-at-a-time). The accumulator walks
// the planned lists in plan order — exactly the order exhaustive
// scoring uses, so every surviving document's float64 addition chain is
// identical to the exhaustive one — and maintains θ, the k-th largest
// current partial score. A document whose partial score plus the sum
// of the remaining lists' upper bounds provably stays below θ can never
// enter the top k and is dropped; a document first seen when the
// remaining bound itself is below θ is never admitted. Both proofs are
// taken on bounds inflated by boundSlack, so float non-associativity
// (the suffix sum, and the (ef·w)·we vs (ef·we)·w product grouping)
// can only make pruning more conservative, never wrong: the pruned
// ranking is byte-identical to the exhaustive one truncated to k.
//
// Block skipping rides on the same proof. Once the remaining bound
// after the current list is below θ, no new document can be admitted
// from any later list, so a block of the current list whose own bound
// is below θ is update-only; if no live accumulator doc falls in its
// doc-id range it is skipped without decoding.

// Pruning metrics: how much work the top-k path avoided.
var (
	mPrunedDocs = telemetry.Default().Counter(
		"expertfind_index_pruned_docs_total",
		"Accumulated candidates dropped by a MaxScore bound proof during top-k scoring.")
	mBlocksSkipped = telemetry.Default().Counter(
		"expertfind_index_blocks_skipped_total",
		"Posting blocks skipped without decoding during top-k scoring.")
)

// boundSlack inflates every upper bound before it is compared against
// the θ threshold. Upper bounds are sums and products of non-negative
// float64s evaluated in a different association order than the scores
// they bound; the relative error of either is far below 1e-12 for any
// realistic list count, so a 1e-9 inflation makes the strict-inequality
// proofs sound while costing essentially no pruning power.
const boundSlack = 1 + 1e-9

// topkCounters aggregates one pruned evaluation's work accounting.
type topkCounters struct {
	postings      int // postings actually decoded and accumulated
	pruned        int // accumulator entries dropped by bound proof
	blocksSkipped int // sealed blocks skipped without decoding
}

func (c *topkCounters) add(o topkCounters) {
	c.postings += o.postings
	c.pruned += o.pruned
	c.blocksSkipped += o.blocksSkipped
}

// topkAcc is the accumulator state of one evaluation. It lives on the
// scorer's stack; what only pruning uses (dead, scratch) is allocated
// when k > 0 first needs it, so an exhaustive evaluation pays for the
// score map alone.
type topkAcc struct {
	k      int
	accept func(DocID) bool
	scores map[DocID]float64
	// dead holds documents dropped by a bound proof, so a later list
	// can never resurrect one with a partial (wrong) score.
	dead    map[DocID]struct{}
	theta   float64   // k-th largest current partial; -Inf until k exist
	scratch []float64 // size-k min-heap reused across settle calls
	topkCounters
}

// admits reports whether a document bounded by bound could still reach
// the current threshold. Strict comparison: ties are never pruned.
func (a *topkAcc) admits(bound float64) bool {
	return !(bound*boundSlack < a.theta)
}

// visit accumulates one posting's contribution c for doc. admit
// permits starting a new accumulator; updates always apply.
func (a *topkAcc) visit(doc DocID, c float64, admit bool) {
	a.postings++
	if v, ok := a.scores[doc]; ok {
		a.scores[doc] = v + c
		return
	}
	if !admit {
		return
	}
	if _, dd := a.dead[doc]; dd {
		return
	}
	if a.accept != nil && !a.accept(doc) {
		return
	}
	a.scores[doc] = c
}

// settle, called after each list, refreshes θ from the live partials
// and drops every accumulator that provably cannot reach it given the
// remaining bound remNext.
func (a *topkAcc) settle(remNext float64) {
	if a.k <= 0 {
		return
	}
	if len(a.scores) >= a.k {
		a.theta = a.kthLargest()
	}
	if math.IsInf(a.theta, -1) || a.theta <= 0 {
		return
	}
	for d, v := range a.scores {
		if (v+remNext)*boundSlack < a.theta {
			delete(a.scores, d)
			if a.dead == nil {
				a.dead = make(map[DocID]struct{})
			}
			a.dead[d] = struct{}{}
			a.pruned++
		}
	}
}

// kthLargest selects the k-th largest live partial with a size-k
// min-heap; requires len(scores) >= k. The result is a pure function
// of the multiset of values, so map iteration order cannot leak into
// the threshold.
func (a *topkAcc) kthLargest() float64 {
	if a.scratch == nil {
		a.scratch = make([]float64, 0, a.k)
	}
	h := a.scratch[:0]
	for _, v := range a.scores {
		if len(h) < a.k {
			h = append(h, v)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p] <= h[i] {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if v > h[0] {
			h[0] = v
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				small := i
				if l < len(h) && h[l] < h[small] {
					small = l
				}
				if r < len(h) && h[r] < h[small] {
					small = r
				}
				if small == i {
					break
				}
				h[i], h[small] = h[small], h[i]
				i = small
			}
		}
	}
	a.scratch = h
	return h[0]
}

// liveDocsSorted snapshots the live accumulator doc ids in ascending
// order, for deciding whether an update-only block intersects any
// accumulator. Taken per list: documents admitted later in the same
// list always carry smaller doc ids than any block still ahead, so the
// snapshot cannot miss a doc a later block must update.
func (a *topkAcc) liveDocsSorted() []DocID {
	out := make([]DocID, 0, len(a.scores))
	for d := range a.scores {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// docsInRange reports whether the sorted snapshot holds a doc in
// (lo, hi]; lo < 0 means unbounded below.
func docsInRange(snap []DocID, lo int64, hi DocID) bool {
	i := sort.Search(len(snap), func(i int) bool { return int64(snap[i]) > lo })
	return i < len(snap) && snap[i] <= hi
}

// walkList feeds one planned list into the accumulator: the sealed
// blocks in doc order, skipping those a bound proof shows cannot
// matter, then the tail. remNext is the summed upper bound of every
// list after this one. Each run is decoded by the one block decoder
// into a stack buffer and accumulated as float64(freq)·w·we, left
// associated, so surviving chains stay byte-identical to the
// exhaustive evaluation.
func (a *topkAcc) walkList(l *postingList, w, remNext float64) {
	listAdmit := a.admits(l.maxW*w + remNext)
	// Block-level admission refinement is sound only once admission is
	// closed for every later list (remNext below θ): a document turned
	// away by a block bound here can then never be admitted later with
	// a partial chain.
	refine := listAdmit && !a.admits(remNext)
	var snap []DocID
	snapped := false
	var buf [blockSize]posting
	// prev is the previous block's maximum doc id: this block's delta
	// base, and the open lower end of its doc range.
	prev := int64(-1)
	for _, bm := range l.blocks {
		lo := prev
		prev = int64(bm.maxDoc)
		admit := listAdmit
		if !listAdmit || (refine && !a.admits(bm.maxW*w+remNext)) {
			admit = false
			if !snapped {
				snap, snapped = a.liveDocsSorted(), true
			}
			if !docsInRange(snap, lo, bm.maxDoc) {
				a.blocksSkipped++
				continue
			}
		}
		ps, _ := l.kind.decodeRun(buf[:0], l.data, bm.off, bm.n, DocID(max(lo, 0)), true)
		for _, p := range ps {
			a.visit(p.doc, float64(p.freq)*w*p.we, admit)
		}
	}
	for pos, left := 0, l.count-l.sealed(); left > 0; left -= blockSize {
		var ps []posting
		ps, pos = l.kind.decodeRun(buf[:0], l.tail, pos, min(left, blockSize), 0, false)
		for _, p := range ps {
			a.visit(p.doc, float64(p.freq)*w*p.we, listAdmit)
		}
	}
}

// boundedList is one planned list this index holds postings for, with
// its resolved weight and rem, the summed upper bound of every list
// after it in plan order (terms first, then entities).
type boundedList struct {
	l   *postingList
	w   float64
	rem float64
}

// scorePlanTopK is the one scorer: it walks src's postings for an
// already-weighted plan and returns the positive matches under the
// accept filter, ordered by scoredLess and truncated to k, plus the
// work counters. The plan's weights may come from a larger collection
// than src (a shard or segment scored under global stats).
// k <= 0 disables both the bound and the pruning (θ never activates):
// an exhaustive accept-filtered evaluation.
func scorePlanTopK(src listSource, plan queryPlan, k int, accept func(DocID) bool) ([]ScoredDoc, topkCounters) {
	lists := make([]boundedList, 0, len(plan))
	for _, pl := range plan {
		if l := src.list(pl.key); l != nil && l.count > 0 {
			lists = append(lists, boundedList{l: l, w: pl.w})
		}
	}
	rem := 0.0
	for i := len(lists) - 1; i >= 0; i-- {
		bl := &lists[i]
		bl.rem = rem
		rem += bl.l.maxW * bl.w
	}

	a := topkAcc{k: k, accept: accept, scores: make(map[DocID]float64), theta: math.Inf(-1)}
	for _, bl := range lists {
		a.walkList(bl.l, bl.w, bl.rem)
		a.settle(bl.rem)
	}

	out := make([]ScoredDoc, 0, len(a.scores))
	for d, s := range a.scores {
		if s > 0 {
			out = append(out, ScoredDoc{Doc: d, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return scoredLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, a.topkCounters
}
