package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"expertfind/internal/telemetry"
)

// Document-at-a-time MaxScore top-k (Turtle & Flood, 1995). Each
// planned list is a cursor over its postings in the evaluation's span,
// in ascending doc order. The scorer takes the least document the
// essential cursors stand on and sums its score over the lists holding
// it, in plan order, from 0: the float64 addition chain the exhaustive
// evaluation computes, so every ranked score is bit-identical to it.
//
// With k > 0 a k-entry heap keeps the best documents so far, and once
// it is full θ is the score of its worst entry. Documents arrive in
// ascending id order, so a later document loses every tie and enters
// iff it scores above θ. Sorted by ascending bound (maxW·w), the
// longest prefix of lists whose summed bound is below θ is
// non-essential: a document only they hold cannot enter, so their
// cursors only seek to the candidates the essential ones yield, and a
// candidate whose essential contributions plus that prefix's bound are
// below θ is pruned before any of them is probed. Both proofs are taken
// on bounds inflated by boundSlack, so float non-associativity (the
// bound sums, and the (ef·we)·w vs (ef·w)·we product grouping) can only
// make pruning more conservative: the ranking is the exhaustive one
// truncated to k, bit for bit. A seek passes over whole blocks
// by their maxDoc without decoding them, and in the block it lands in
// decodes only the posting it stops at. The parts of one query share
// a θ floor (thetaFloor): pruning takes the greater of it and the
// part's θ, and a document enters only if it also scores at least the
// floor.

// Pruning metrics: how much work the top-k path avoided.
var (
	mPrunedDocs = telemetry.Default().Counter(
		"expertfind_index_pruned_docs_total",
		"Top-k candidates rejected by a MaxScore bound before the non-essential lists were probed. Depends on how parts are scheduled when a store scores on more than one worker, since the parts share a theta floor.")
	mBlocksSkipped = telemetry.Default().Counter(
		"expertfind_index_blocks_skipped_total",
		"Posting blocks in a scored span that top-k scoring never decoded. Depends on how parts are scheduled when a store scores on more than one worker, since the parts share a theta floor.")
)

// boundSlack inflates every upper bound before it is compared against
// the θ threshold. Upper bounds are sums and products of non-negative
// float64s evaluated in a different association order than the scores
// they bound; the relative error of either is far below 1e-12 for any
// realistic list count, so a 1e-9 inflation makes the strict-inequality
// proofs sound while costing essentially no pruning power.
const boundSlack = 1 + 1e-9

// thetaFloor is the θ floor the parts of one query share: a float64
// in an atomic word that only rises. A part whose heap is full holds k
// accepted documents scoring at least its θ, every part scores under
// the one plan, so a document scoring strictly below any part's θ
// cannot be in the query's top k. One tying it still may, on a lower
// doc id, so a part prunes only strictly below the floor and admits a
// document scoring exactly the floor. A nil floor is a lone part's: 0.
type thetaFloor struct{ bits atomic.Uint64 }

func (f *thetaFloor) load() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// raise lifts the floor to theta unless it is already at or above it.
func (f *thetaFloor) raise(theta float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= theta || f.bits.CompareAndSwap(old, math.Float64bits(theta)) {
			return
		}
	}
}

// topkCounters aggregates one pruned evaluation's work accounting.
type topkCounters struct {
	postings      int // postings a cursor consumed at a candidate
	pruned        int // candidates rejected by a bound
	blocksSkipped int // blocks in the span never decoded
}

func (c *topkCounters) add(o topkCounters) {
	c.postings += o.postings
	c.pruned += o.pruned
	c.blocksSkipped += o.blocksSkipped
}

// cursor walks one bound list's postings in the span in ascending doc
// order, streamed one posting at a time from the list's blocks and
// clipped to the span.
type cursor struct {
	l     postingList
	w     float64 // the plan weight
	bound float64 // maxW·w: no posting contributes more
	// upto is the summed bound of this cursor and every one before it
	// in ascending-bound order.
	upto     float64
	ne       bool    // non-essential: the cursor only seeks to candidates
	done     bool    // past the last posting; cur is stale
	cur      posting // the posting the cursor stands on
	span     docRange
	blk, end int // l.blocks[blk:end] are the span's blocks not yet entered
	skipped  int // blocks in the span not entered (yet)
	// The entered block's stream: left postings past cur not yet
	// decoded at l.data[pos:], their doc ids chained from base.
	pos, left int
	base      DocID
}

// at reports whether the cursor stands on d.
func (c *cursor) at(d DocID) bool { return !c.done && c.cur.doc == d }

// contrib is the current posting's Eq. (1) contribution, left
// associated as the exhaustive evaluation computes it.
func (c *cursor) contrib() float64 { return float64(c.cur.freq) * c.w * c.cur.we }

// enter starts the stream of the span's next block: a block counts as
// decoded once it is entered.
func (c *cursor) enter() {
	c.base = 0 // the block's delta base
	if c.blk > 0 {
		c.base = c.l.blocks[c.blk-1].maxDoc
	}
	c.pos, c.left = c.l.blocks[c.blk].off, int(c.l.blocks[c.blk].n)
	c.blk++
	c.skipped--
}

// next moves to the following posting, entering the span's next block
// once the entered one is spent. The first posting at or past span.hi
// ends the walk.
func (c *cursor) next() {
	if c.left == 0 {
		if c.blk == c.end {
			c.done = true
			return
		}
		c.enter()
	}
	p, pos := c.l.kind.decode(c.l.data, c.pos, c.base)
	c.pos, c.base = pos, p.doc
	c.left--
	if int64(p.doc) >= c.span.hi {
		c.left, c.done = 0, true // the span's last block is the entered one
		return
	}
	c.cur = p
}

// reach moves to the first posting at or past d: it passes over the
// blocks that end below d by their maxDoc without entering them, and in
// the block that holds d parses only the deltas before it.
func (c *cursor) reach(d DocID) {
	if c.left == 0 || c.l.blocks[c.blk-1].maxDoc < d {
		c.left = 0
		for c.blk < c.end && c.l.blocks[c.blk].maxDoc < d {
			c.blk++
		}
		if c.blk == c.end {
			c.done = true
			return
		}
		c.enter()
	}
	c.pos, c.base, c.left = c.l.kind.pass(c.l.data, c.pos, c.left, c.base, d)
	c.next()
}

// seek moves to the first posting at or past d.
func (c *cursor) seek(d DocID) {
	if !c.done && c.cur.doc < d {
		c.reach(d)
	}
}

// topkAcc is the state of one evaluation. Its buffers are pooled across
// evaluations (accFree); release empties them.
type topkAcc struct {
	k     int
	lists []cursor    // plan order
	order []*cursor   // ascending bound: the non-essential lists first
	hits  []ScoredDoc // the k-entry heap; every match when k <= 0
	// arena holds the skip entries bind parses out of segment files;
	// the cursors' blocks are windows of it.
	arena []blockMeta
	topkCounters
}

// The caps on the buffers a released topkAcc keeps (at most 1 MiB
// each, 2.1 MiB together on 64-bit): one outsized evaluation must not
// pin its high-water mark in the pool.
const (
	maxPooledDocs   = 1 << 16
	maxPooledBlocks = 1 << 15
	maxPooledLists  = 1 << 8
)

// accFree is the free list of released accumulators: at most 8 kept,
// at most 2.1 MiB of buffers each. Not a sync.Pool: that empties with
// the garbage collector's cycles and keeps one slot per P, so a caller
// the scheduler moves between Ps loses its warm state at times nothing
// in the program chooses and regrows its buffers by doubling — ±3 %
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

// pooled returns s emptied for the free list, or nil once it grew past
// limit.
func pooled[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s[:0]
}

// release returns the buffers to the free list, emptied, holding on
// to nothing of the evaluation: not a segment's per-query posting
// lists. A full list drops them.
func (a *topkAcc) release() {
	all := a.lists[:cap(a.lists)] // bind leaves the cursors it dropped past len
	for i := range all {
		all[i] = cursor{}
	}
	clear(a.order)
	*a = topkAcc{
		lists: pooled(a.lists, maxPooledLists),
		order: pooled(a.order, maxPooledLists),
		hits:  pooled(a.hits, maxPooledDocs),
		arena: pooled(a.arena, maxPooledBlocks),
	}
	select {
	case accFree <- a:
	default:
	}
}

// bind resolves the plan against src: one cursor on each list src holds
// postings for in span, in plan order, standing on its first posting.
// The headers land in the pooled lists and segment skip entries in the
// pooled arena, so a warm accumulator binds without allocating.
func (a *topkAcc) bind(src listSource, plan queryPlan, span docRange) {
	a.lists = slices.Grow(a.lists, len(plan))
	for _, pl := range plan {
		a.lists = a.lists[:len(a.lists)+1]
		c := &a.lists[len(a.lists)-1]
		*c = cursor{w: pl.w, span: span}
		a.arena = src.list(pl.key, &c.l, a.arena)
		c.bound, c.end = c.l.maxW*pl.w, len(c.l.blocks)
		if span.lo > allDocs.lo {
			c.blk = sort.Search(c.end, func(b int) bool { return int64(c.l.blocks[b].maxDoc) >= span.lo })
		}
		if span.hi < allDocs.hi { // the last block in span ends at or past hi-1
			c.end = min(c.end, 1+sort.Search(c.end, func(b int) bool { return int64(c.l.blocks[b].maxDoc) >= span.hi-1 }))
		}
		c.skipped = c.end - c.blk
		if c.reach(DocID(span.lo)); c.done { // no posting in span
			a.lists = a.lists[:len(a.lists)-1]
		}
	}
	for i := range a.lists {
		a.order = append(a.order, &a.lists[i])
	}
	slices.SortFunc(a.order, func(x, y *cursor) int { return cmp.Compare(x.bound, y.bound) })
	upto := 0.0
	for _, c := range a.order {
		upto += c.bound
		c.upto = upto
	}
}

// split marks non-essential the cursors past the first ne of order
// whose summed bound cannot reach cut, and returns their new count.
func (a *topkAcc) split(ne int, cut float64) int {
	for ne < len(a.order) && a.order[ne].upto*boundSlack < cut {
		a.order[ne].ne = true
		ne++
	}
	return ne
}

// viable reports whether d, which some of the essential cursors (those
// past the first ne of order) stand on, could still reach cut: their
// contributions plus the non-essential lists' summed bound. A candidate
// that cannot is counted pruned.
func (a *topkAcc) viable(d DocID, ne int, cut float64) bool {
	if ne == 0 {
		return true
	}
	v := a.order[ne-1].upto
	for _, c := range a.order[ne:] {
		if c.at(d) {
			v += c.contrib()
		}
	}
	if v*boundSlack < cut {
		a.pruned++
		return false
	}
	return true
}

// ranksAbove reports whether a ranks above b in scoredCmp's order:
// descending score, ties broken by ascending DocID. The heap and the
// merge only ask that question, which takes one or two comparisons
// where scoredCmp's three-way answer takes up to four and a sign test.
func ranksAbove(a, b ScoredDoc) bool {
	return a.Score > b.Score || a.Score == b.Score && a.Doc < b.Doc
}

// push adds e, which ranks above the worst kept entry, to the k-entry
// heap of hits whose root is its worst entry, and reports whether the
// heap is full.
func (a *topkAcc) push(e ScoredDoc) bool {
	h := a.hits
	if i := len(h); i < a.k {
		h = append(h, e)
		for ; i > 0 && ranksAbove(h[(i-1)/2], e); i = (i - 1) / 2 {
			h[i] = h[(i-1)/2]
		}
		h[i] = e
	} else {
		siftDown(h, e)
	}
	a.hits = h
	return len(h) == a.k
}

// siftDown replaces the root of the worst-rooted heap h with e and
// moves e down to its place.
func siftDown(h []ScoredDoc, e ScoredDoc) {
	i := 0
	for {
		w := 2*i + 1
		if w >= len(h) {
			break
		}
		if w+1 < len(h) && ranksAbove(h[w], h[w+1]) {
			w++
		}
		if !ranksAbove(e, h[w]) {
			break
		}
		h[i], i = h[w], w
	}
	h[i] = e
}

// orderHeap sorts the worst-rooted heap h in place, best first: each
// step swaps the worst remaining entry, the root, behind the heap it
// shrinks.
func orderHeap(h []ScoredDoc) {
	for n := len(h) - 1; n > 0; n-- {
		e := h[n]
		h[n] = h[0]
		siftDown(h[:n], e)
	}
}

// scorePlanTopK is the one scorer: it scores src's documents in span
// for an already-weighted plan and returns the positive matches under
// the accept filter, ordered by scoredCmp and truncated to k, plus the
// work counters. The plan's weights may come from a larger collection
// than src (a shard or segment scored under global stats). floor is the
// θ floor src shares with the query's other parts, nil when it is the
// only one; the part reads it at every candidate and raises it to its
// θ while its heap is full. k <= 0 is the exhaustive accept-filtered
// evaluation: θ stays 0 and the floor is ignored, so every cursor stays
// essential and nothing is pruned.
func scorePlanTopK(src listSource, plan queryPlan, k int, accept func(DocID) bool, span docRange, floor *thetaFloor) ([]ScoredDoc, topkCounters) {
	if k <= 0 {
		floor = nil
	}
	a := newAcc()
	a.k = k
	a.bind(src, plan, span)
	theta, fl, ne := 0.0, 0.0, 0 // only positive scores rank
	for {
		if f := floor.load(); f > fl {
			fl = f
			ne = a.split(ne, max(theta, fl))
		}
		ess := a.order[ne:]
		d, live := DocID(0), false
		for _, c := range ess {
			if !c.done && (!live || c.cur.doc < d) {
				d, live = c.cur.doc, true
			}
		}
		if !live {
			break
		}
		if a.viable(d, ne, max(theta, fl)) && (accept == nil || accept(d)) {
			s := 0.0
			for i := range a.lists {
				c := &a.lists[i]
				if c.ne {
					c.seek(d)
				}
				if c.at(d) {
					s += c.contrib()
					if c.ne { // the essential ones count as they move on
						a.postings++
					}
				}
			}
			if s > theta && k <= 0 {
				a.hits = append(a.hits, ScoredDoc{Doc: d, Score: s})
			} else if s > theta && s >= fl && a.push(ScoredDoc{Doc: d, Score: s}) {
				theta = a.hits[0].Score
				floor.raise(theta)
				ne = a.split(ne, max(theta, fl))
			}
		}
		for _, c := range ess {
			if c.at(d) {
				c.next()
				a.postings++
			}
		}
	}
	for i := range a.lists {
		a.blocksSkipped += a.lists[i].skipped
	}

	// Rank in the pooled buffer; only the caller's slice is allocated.
	if k > 0 {
		orderHeap(a.hits)
	} else {
		slices.SortFunc(a.hits, scoredCmp)
	}
	out, counters := make([]ScoredDoc, len(a.hits)), a.topkCounters
	copy(out, a.hits)
	a.release()
	return out, counters
}
