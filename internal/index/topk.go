package index

import (
	"cmp"
	"math"
	"slices"
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
//
// The accumulator is one slice of partial scores in ascending doc
// order. Sealed blocks are doc-sorted too, so a list walks it with a
// cursor that only moves forward, and that same cursor answers "does
// an update-only block overlap a live document". Documents a list
// admits wait in a pending run that settle merges in once the list is
// done; a document appears at most once per list, so nothing in the
// pending run is looked up before then.

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

// topkAcc is the accumulator state of one evaluation. Its buffers are
// pooled across evaluations (accFree); everything else is reset by
// scorePlanTopK.
type topkAcc struct {
	k      int
	accept func(DocID) bool
	span   docRange // the documents the evaluation scores
	// docs holds every live partial score, ascending by doc id.
	docs []ScoredDoc
	// pend holds the documents the list being walked has admitted.
	pend []ScoredDoc
	// closed is set by the first bound-proof drop. A drop proves
	// remNext·slack < θ, every later list's admission bound is a suffix
	// of that same sum and θ never falls, so admission stays closed for
	// good: a dropped document can never come back with a partial
	// (wrong) score.
	closed bool
	theta  float64   // k-th largest current partial; -Inf until k exist
	heap   []float64 // size-k min-heap reused across settle calls
	lists  []boundedList
	// arena holds the skip entries bind parses out of segment files;
	// the bound lists' blocks are windows of it.
	arena []blockMeta
	topkCounters
}

// maxPooledDocs and maxPooledBlocks bound the buffers a released
// topkAcc keeps (1 MiB each): one outsized evaluation must not pin its
// high-water mark in the pool.
const (
	maxPooledDocs   = 1 << 16
	maxPooledBlocks = 1 << 15
)

// accFree is the free list of released accumulators: at most 8 kept,
// at most 3 MiB of buffers each. Not a sync.Pool: that empties with
// the garbage collector's cycles and keeps one slot per P, so a caller
// the scheduler moves between Ps loses its warm state at times nothing
// in the program chooses and regrows both buffers by doubling — ±3 %
// of a top-10 find's allocated bytes from one pass over the same
// requests to the next.
var accFree = make(chan *topkAcc, 8)

// newAcc takes a released accumulator, or a fresh one when every kept
// one is in use.
func newAcc() *topkAcc {
	select {
	case a := <-accFree:
		return a
	default:
		return new(topkAcc)
	}
}

// release returns the buffers to the free list, emptied, holding on
// to nothing of the evaluation: not the caller's filter, not a
// segment's per-query posting lists. A full list drops them.
func (a *topkAcc) release() {
	if cap(a.docs) > maxPooledDocs {
		a.docs = nil
	}
	if cap(a.pend) > maxPooledDocs {
		a.pend = nil
	}
	if cap(a.arena) > maxPooledBlocks {
		a.arena = nil
	}
	clear(a.lists)
	*a = topkAcc{docs: a.docs[:0], pend: a.pend[:0], heap: a.heap[:0], lists: a.lists[:0], arena: a.arena[:0]}
	select {
	case accFree <- a:
	default:
	}
}

// admits reports whether a document bounded by bound could still reach
// the current threshold. Strict comparison: ties are never pruned.
func (a *topkAcc) admits(bound float64) bool {
	return !(bound*boundSlack < a.theta)
}

// seekScored returns the least i >= from with docs[i].Doc >= d
// (len(docs) if none): seekDoc's gallop-then-bisect over accumulator
// entries, so a walk costs what the gaps between a list's postings
// cost, not the size of the accumulator.
func seekScored(docs []ScoredDoc, from int, d DocID) int {
	if from >= len(docs) || docs[from].Doc >= d {
		return from
	}
	lo, step := from, 1 // docs[lo].Doc < d
	for lo+step < len(docs) && docs[lo+step].Doc < d {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(docs)) // docs[hi].Doc >= d, or hi is the end
	for lo+1 < hi {
		if m := int(uint(lo+hi) >> 1); docs[m].Doc < d {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// visit accumulates one posting's contribution c for doc, looking the
// document up from accumulator position from on, and returns where the
// lookup ended. admit permits starting a new accumulator; updates
// always apply.
func (a *topkAcc) visit(from int, doc DocID, c float64, admit bool) int {
	a.postings++
	i := seekScored(a.docs, from, doc)
	if i < len(a.docs) && a.docs[i].Doc == doc {
		a.docs[i].Score += c
		return i + 1
	}
	if admit && (a.accept == nil || a.accept(doc)) {
		a.pend = append(a.pend, ScoredDoc{Doc: doc, Score: c})
	}
	return i
}

// settle, called after each list, merges the documents the list
// admitted into the accumulator, refreshes θ from the live partials and
// drops every accumulator that provably cannot reach it given the
// remaining bound remNext. remAfterNext is the remaining bound of the
// list walked next (0 after the last).
//
// The selection is skipped when it could not prune. θ is at most the
// largest live partial, so while no partial exceeds
// remAfterNext·boundSlack neither does θ, fresh or stale: no document
// is dropped here (remNext >= remAfterNext), and the next list and each
// of its blocks are admitted unrefined, all of those proofs comparing θ
// against a bound of at least remAfterNext. A stale θ is only lower,
// and after the last list any positive partial forces the refresh.
func (a *topkAcc) settle(remNext, remAfterNext float64) {
	a.mergePending()
	if a.k <= 0 || len(a.docs) < a.k || !a.anyAbove(remAfterNext*boundSlack) {
		return
	}
	a.theta = a.kthLargest()
	if a.theta <= 0 {
		return
	}
	live := a.docs[:0]
	for _, e := range a.docs {
		if !((e.Score+remNext)*boundSlack < a.theta) {
			live = append(live, e)
		}
	}
	if dropped := len(a.docs) - len(live); dropped > 0 {
		a.pruned += dropped
		a.closed = true
	}
	a.docs = live
}

// anyAbove reports whether some live partial exceeds v.
func (a *topkAcc) anyAbove(v float64) bool {
	for _, e := range a.docs {
		if e.Score > v {
			return true
		}
	}
	return false
}

// mergePending merges the doc-sorted pending run into docs from the
// back, so no entry moves more than once and nothing is copied aside.
func (a *topkAcc) mergePending() {
	if len(a.pend) == 0 {
		return
	}
	i, j := len(a.docs)-1, len(a.pend)-1
	a.docs = append(a.docs, a.pend...)
	if i >= 0 && a.docs[i].Doc > a.pend[0].Doc { // else appending was the merge
		// docs[:i+1] and pend[:j+1] are still to place, at docs[w]
		// downwards; once pend runs out the rest of docs is in place.
		for w := len(a.docs) - 1; j >= 0; w-- {
			if i >= 0 && a.docs[i].Doc > a.pend[j].Doc {
				a.docs[w] = a.docs[i]
				i--
			} else {
				a.docs[w] = a.pend[j]
				j--
			}
		}
	}
	a.pend = a.pend[:0]
}

// kthLargest selects the k-th largest live partial with a size-k
// min-heap; requires len(docs) >= k.
func (a *topkAcc) kthLargest() float64 {
	h := a.heap[:0]
	for _, e := range a.docs {
		v := e.Score
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
	a.heap = h
	return h[0]
}

// walkList feeds the postings of one planned list that lie in the
// evaluation's span into the accumulator: the sealed blocks in doc
// order, skipping those a bound proof shows cannot matter, then the
// tail. remNext is the summed upper bound of every list after this one.
// Each run is decoded by the one block decoder into a stack buffer and
// accumulated as float64(freq)·w·we, left associated, so surviving
// chains stay byte-identical to the exhaustive evaluation.
//
// The span costs a whole component nothing per posting: the walk starts
// at the first block reaching span.lo and stops at the first whose
// postings, all above its base, lie at or past span.hi, so only the
// blocks straddling either end, and the tail, test postings against it.
func (a *topkAcc) walkList(l *postingList, w, remNext float64) {
	listAdmit := !a.closed && a.admits(l.maxW*w+remNext)
	// Block-level admission refinement is sound only once admission is
	// closed for every later list (remNext below θ): a document turned
	// away by a block bound here can then never be admitted later with
	// a partial chain.
	refine := listAdmit && !a.admits(remNext)
	var buf [blockSize]posting
	// cur is the accumulator cursor: docs[cur] is the first live
	// document above every sealed posting walked or skipped so far.
	// Documents this list admits are pending, below every block still
	// ahead, so docs is all a block can update.
	cur := 0
	first := 0
	if a.span.lo > allDocs.lo {
		first = sort.Search(len(l.blocks), func(b int) bool { return int64(l.blocks[b].maxDoc) >= a.span.lo })
	}
	for b := first; b < len(l.blocks); b++ {
		bm := &l.blocks[b]
		base := DocID(0) // the block's delta base
		if b > 0 {
			if base = l.blocks[b-1].maxDoc; int64(base)+1 >= a.span.hi {
				break // every later posting is above base
			}
		}
		admit := listAdmit
		if !listAdmit || (refine && !a.admits(bm.maxW*w+remNext)) {
			admit = false
			if cur == len(a.docs) || a.docs[cur].Doc > bm.maxDoc {
				a.blocksSkipped++
				continue
			}
		}
		ps, _ := l.kind.decodeRun(buf[:0], l.data, bm.off, int(bm.n), base, true)
		if int64(base) < a.span.lo || int64(bm.maxDoc) >= a.span.hi {
			ps = a.span.clip(ps)
		}
		for _, p := range ps {
			cur = a.visit(cur, p.doc, float64(p.freq)*w*p.we, admit)
		}
	}
	left := l.count - l.sealed()
	if left == 0 {
		return
	}
	// The tail is unsorted: each posting searches the accumulator from
	// the start, and what it admits leaves the pending run unsorted.
	whole := a.span == allDocs
	for pos := 0; left > 0; left -= blockSize {
		var ps []posting
		ps, pos = l.kind.decodeRun(buf[:0], l.tail, pos, min(left, blockSize), 0, false)
		for _, p := range ps {
			if whole || a.span.has(p.doc) {
				a.visit(0, p.doc, float64(p.freq)*w*p.we, listAdmit)
			}
		}
	}
	slices.SortFunc(a.pend, func(x, y ScoredDoc) int { return cmp.Compare(x.Doc, y.Doc) })
}

// boundedList is one planned list this index holds postings for, with
// its resolved weight and rem, the summed upper bound of every list
// after it in plan order (terms first, then entities).
type boundedList struct {
	l   postingList
	w   float64
	rem float64
}

// bind resolves the plan against src: the lists src holds postings
// for, in plan order, each with its rem. The headers land in the
// pooled lists and their skip entries in the pooled arena, so a warm
// accumulator binds without allocating.
func (a *topkAcc) bind(src listSource, plan queryPlan) {
	for _, pl := range plan {
		a.lists = append(a.lists, boundedList{w: pl.w})
		bl := &a.lists[len(a.lists)-1]
		if a.arena = src.list(pl.key, &bl.l, a.arena); bl.l.count == 0 {
			a.lists = a.lists[:len(a.lists)-1]
		}
	}
	rem := 0.0
	for i := len(a.lists) - 1; i >= 0; i-- {
		bl := &a.lists[i]
		bl.rem = rem
		rem += bl.l.maxW * bl.w
	}
}

// remAfterNext is the rem of the list walked after list i, 0 after the
// last: the least bound θ is compared against before list i+1 settles.
func (a *topkAcc) remAfterNext(i int) float64 {
	if i+1 < len(a.lists) {
		return a.lists[i+1].rem
	}
	return 0
}

// scorePlanTopK is the one scorer: it walks src's postings in span for
// an already-weighted plan and returns the positive matches under the
// accept filter, ordered by scoredCmp and truncated to k, plus the
// work counters. The plan's weights may come from a larger collection
// than src (a shard or segment scored under global stats).
// k <= 0 disables both the bound and the pruning (θ never activates):
// an exhaustive accept-filtered evaluation.
func scorePlanTopK(src listSource, plan queryPlan, k int, accept func(DocID) bool, span docRange) ([]ScoredDoc, topkCounters) {
	a := newAcc()
	a.k, a.accept, a.span, a.theta = k, accept, span, math.Inf(-1)
	a.bind(src, plan)
	for i := range a.lists {
		bl := &a.lists[i]
		a.walkList(&bl.l, bl.w, bl.rem)
		a.settle(bl.rem, a.remAfterNext(i))
	}

	// Rank in the pooled buffer; only the caller's slice is allocated.
	ranked := a.ranked()
	out, counters := make([]ScoredDoc, len(ranked)), a.topkCounters
	copy(out, ranked)
	a.release()
	return out, counters
}

// ranked orders the positive live partials by scoredCmp and cuts them
// to k, in the pooled docs buffer.
//
// The exhaustive evaluation, and one with at most k live entries, sorts
// them all. Otherwise the last settle, run with no list left to walk,
// refreshed θ to the exact k-th largest partial whenever one is
// positive, so the top k are the entries strictly above θ — fewer than
// k — followed by the ties at θ in ascending doc order, the order docs
// is already in. Only the entries above θ are sorted. A θ below the
// true k-th largest (partials only grow after a refresh) would put k or
// more entries above it; sorting those and keeping k is still exact.
func (a *topkAcc) ranked() []ScoredDoc {
	if a.k <= 0 || len(a.docs) <= a.k {
		ranked := a.docs[:0]
		for _, e := range a.docs {
			if e.Score > 0 {
				ranked = append(ranked, e)
			}
		}
		slices.SortFunc(ranked, scoredCmp)
		return ranked
	}
	// Entries above θ compact to the front of docs, which the pass has
	// already read; ties wait in pend, which the last settle emptied, and
	// no more than k of them can be kept. A θ of 0 or less has no ties
	// worth keeping: only positive scores rank.
	theta := max(a.theta, 0)
	above := a.docs[:0]
	for _, e := range a.docs {
		switch {
		case e.Score > theta:
			above = append(above, e)
		case e.Score == theta && theta > 0 && len(a.pend) < a.k:
			a.pend = append(a.pend, e)
		}
	}
	slices.SortFunc(above, scoredCmp)
	if len(above) >= a.k {
		return above[:a.k]
	}
	return append(above, a.pend[:min(len(a.pend), a.k-len(above))]...)
}
