package socialgraph

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"expertfind/internal/telemetry"
)

// Traversal metrics: the reachability table is the expensive structure
// behind expert ranking. A build walks every candidate; a patch, which
// brings a table current after record changes, walks none.
var (
	mTraversals = telemetry.Default().Counter(
		"expertfind_graph_traversals_total",
		"Per-candidate walks of reachability-table builds; a patch walks none.")
	mTraversalHits = telemetry.Default().Counter(
		"expertfind_graph_traversal_resources_total",
		"Resource hits (candidate, resource, distance) collected by table builds.")
	mTraversalSeconds = telemetry.Default().Histogram(
		"expertfind_graph_traversal_duration_seconds",
		"Wall time of one full reachability-table build.", nil)
	mReachPatches = telemetry.Default().Counter(
		"expertfind_graph_reach_patches_total",
		"Reachability tables patched current from the change journal.")
)

// TraversalOptions controls the reach of the social-graph exploration
// around an expert candidate (paper §2.2, Table 1).
type TraversalOptions struct {
	// MaxDistance is the maximum graph distance of the resources to
	// collect: 0 (profile only), 1, or 2. Distances are cumulative, as
	// in the paper's experiments: distance 2 includes distances 0 and 1.
	MaxDistance int
	// Networks restricts the exploration to the given platforms; nil
	// means all of them.
	Networks []Network
	// IncludeFriends extends the follow-based paths to bidirectional
	// (friendship) relationships. The paper excludes friends by
	// default, having verified empirically (§3.3.3, Table 2) that
	// their resources do not improve the matching.
	IncludeFriends bool
}

// Hit is a resource reached by the traversal, with its minimal graph
// distance from the candidate.
type Hit struct {
	Resource ResourceID
	Distance int
}

// ResourcesWithin enumerates the resources related to candidate u at
// distance ≤ opts.MaxDistance, following the paths of Table 1:
//
//	distance 0: the candidate's profile(s);
//	distance 1: resources the candidate owns/creates/annotates,
//	            descriptions of containers the candidate relates to,
//	            profiles of users the candidate follows;
//	distance 2: resources contained in the candidate's containers,
//	            resources owned/created/annotated by followed users,
//	            descriptions of the followed users' containers,
//	            profiles of users followed by followed users.
//
// A resource reachable through several paths is reported once at its
// minimal distance. Hits are ordered by (distance, resource ID).
// Tombstoned resources are not reported.
func (g *Graph) ResourcesWithin(u UserID, opts TraversalOptions) []Hit {
	g.mu.RLock()
	defer g.mu.RUnlock()
	w := g.newWalk(opts)
	w.from(u)
	hits := make([]Hit, 0, len(w.touched))
	for _, r := range w.touched {
		if s := w.dist[r]; s > 0 {
			hits = append(hits, Hit{Resource: r, Distance: int(s - 1)})
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Resource, b.Resource))
	})
	return hits
}

// walk is the traversal kernel behind ResourcesWithin, Reachability
// and DistanceCounts. One walk serves every candidate of a call: its
// state is one int8 per resource id plus the ids touched by the
// current candidate, which reset it before the next.
type walk struct {
	g    *Graph
	opts TraversalOptions
	nets []Network
	// dist is 0 for an untouched resource, excluded for a tombstoned one
	// or one outside nets, and 1 + the least distance recorded so far
	// otherwise.
	dist    []int8
	touched []ResourceID
}

const excluded int8 = -1

// newWalk sizes a walk for the graph; the caller holds the read lock.
func (g *Graph) newWalk(opts TraversalOptions) *walk {
	nets := opts.Networks
	if nets == nil {
		nets = Networks
	}
	return &walk{g: g, opts: opts, nets: nets, dist: make([]int8, len(g.resources))}
}

// record reaches r at distance d. The tombstone and network checks run
// on the first touch only; later touches can only lower the distance.
func (w *walk) record(r ResourceID, d int8) {
	switch s := w.dist[r]; {
	case s == 0:
		w.touched = append(w.touched, r)
		if w.g.deleted[r] || !slices.Contains(w.nets, w.g.resources[r].Network) {
			w.dist[r] = excluded
		} else {
			w.dist[r] = d + 1
		}
	case s > d+1:
		w.dist[r] = d + 1
	}
}

// from walks the Table 1 paths out of candidate u, leaving its hits as
// the touched ids whose dist is positive, in touch order.
func (w *walk) from(u UserID) {
	g := w.g
	g.user(u)
	for _, r := range w.touched {
		w.dist[r] = 0
	}
	w.touched = w.touched[:0]
	far := w.opts.MaxDistance >= 2

	// Distance 0: candidate profiles.
	for _, net := range w.nets {
		if rid, ok := g.profiles[profileKey{u, net}]; ok {
			w.record(rid, 0)
		}
	}
	if w.opts.MaxDistance < 1 {
		return
	}
	w.authored(u, 1)
	for _, c := range g.relatesTo[u] {
		w.record(g.containers[c].Desc, 1)
		if far {
			for _, r := range g.contains[c] {
				w.record(r, 2)
			}
		}
	}
	// Followed users are iterated in place: the distances recorded do
	// not depend on the order they are reached in.
	for _, net := range w.nets {
		m := g.follows[net]
		for v := range m[u] {
			if !w.opts.IncludeFriends && m[v][u] {
				continue // mutual: a friend, not a followed user
			}
			if rid, ok := g.profiles[profileKey{v, net}]; ok {
				w.record(rid, 1)
			}
			if !far {
				continue
			}
			w.authored(v, 2)
			for _, c := range g.relatesTo[v] {
				w.record(g.containers[c].Desc, 2)
			}
			for x := range m[v] {
				if x == u || (!w.opts.IncludeFriends && m[x][v]) {
					continue
				}
				if rid, ok := g.profiles[profileKey{x, net}]; ok {
					w.record(rid, 2)
				}
			}
		}
	}
}

// authored records what u owns, creates and annotates at distance d.
func (w *walk) authored(u UserID, d int8) {
	for _, r := range w.g.owns[u] {
		w.record(r, d)
	}
	for _, r := range w.g.creates[u] {
		w.record(r, d)
	}
	for _, r := range w.g.annotates[u] {
		w.record(r, d)
	}
}

// followed returns the users v that u follows on net. When
// includeFriends is false, bidirectional (friendship) relationships
// are excluded: only genuine followed users — the thematically
// focused accounts of §2.2 — are returned. The result is sorted.
func (g *Graph) followed(u UserID, net Network, includeFriends bool) []UserID {
	m := g.follows[net]
	if m == nil {
		return nil
	}
	var out []UserID
	for v := range m[u] {
		if !includeFriends && m[v][u] {
			continue // mutual: a friend, not a followed user
		}
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Followed exposes the followed-user list of u on net (friends
// excluded unless includeFriends).
func (g *Graph) Followed(u UserID, net Network, includeFriends bool) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.user(u)
	return g.followed(u, net, includeFriends)
}

// CandidateDistance associates an expert candidate with the distance
// at which a resource was reached from it.
type CandidateDistance struct {
	Candidate UserID
	Distance  int
}

// ReachTable inverts ResourcesWithin over a set of candidates: for
// every reachable resource it lists the candidates that reach it, with
// their minimal distance, in candidate order. This is the structure
// the expert-ranking step (Eq. 3) consumes to attribute relevant
// resources to candidates. It is dense: the lists lie in one arena in
// resource-id order, off bounds each, and a bitset marks the ids whose
// list is not empty, so a lookup is a bit test and two loads.
//
// A table records the graph state it reflects and follows the graph
// through CatchUp. It is immutable once returned: a catch-up publishes
// a new table and leaves this one serving whoever holds it.
type ReachTable struct {
	// off has one entry per resource id the table covers plus one: the
	// candidates reaching r are arena[off[r]:off[r+1]] when bit r of
	// bits is set. A patch empties a list by clearing its bit, so the
	// arena may hold dead entries.
	off     []int32
	arena   []CandidateDistance
	bits    []uint64
	reached int
	dead    int

	// The build's inputs, and the graph state the table reflects: the
	// journal cursor and the edge generation.
	g      *Graph
	cands  []UserID
	opts   TraversalOptions // Networks resolved
	cursor uint64
	edges  uint64
	// rev is the reverse index a patch computes new lists from, built
	// by the first patch and handed down the chain of patched tables.
	rev *reverseIndex
	// grown is set by the patch that appends past this table's off and
	// arena; another patch of the same table copies them instead.
	grown atomic.Bool
}

// Of returns the candidates reaching r, nil when r is out of range or
// unreached. The list is a sub-slice of the table's arena, capped so
// an append copies.
func (t *ReachTable) Of(r ResourceID) []CandidateDistance {
	if !t.Reaches(r) {
		return nil
	}
	lo, hi := t.off[r], t.off[r+1]
	return t.arena[lo:hi:hi]
}

// Reaches reports whether any candidate reaches r: one bit test, the
// filter the scorer applies to every posting it might admit.
func (t *ReachTable) Reaches(r ResourceID) bool {
	// A negative id wraps past every word.
	w := uint32(r) >> 6
	return int(w) < len(t.bits) && t.bits[w]&(1<<(uint32(r)&63)) != 0
}

// Len returns the number of reachable resources.
func (t *ReachTable) Len() int { return t.reached }

// Span returns the number of resource ids the table covers: Of is nil
// for every id at or above it.
func (t *ReachTable) Span() int { return len(t.off) - 1 }

// current reports whether the graph is as the table reflects it: no
// record change and no edge change since. Two atomic loads.
func (t *ReachTable) current() bool {
	return t.g.journal.head.Load() == t.cursor && t.g.edges.Load() == t.edges
}

// CatchUp returns a table equal to a fresh Reachability of t's
// candidates and options on the graph as it is now: t itself when it
// is current, a patch of t when only records changed, and a rebuild
// (rebuilt true) when an edge changed, the journal no longer reaches
// t's cursor, or the patch would leave more dead arena entries than
// live ones. A patch walks no candidate: a removed resource's list
// empties, an added one's comes from a reverse index over the
// candidates, and every other list is kept, because Table 1's paths
// run through users and containers, never through another resource.
func (t *ReachTable) CatchUp() (next *ReachTable, rebuilt bool) {
	if t.current() {
		return t, false
	}
	g := t.g
	g.mu.RLock()
	defer g.mu.RUnlock()
	if next := g.patch(t); next != nil {
		mReachPatches.Inc()
		return next, false
	}
	return g.reachability(t.cands, t.opts), true
}

// Reachability builds the ReachTable of candidates under opts. The
// table keeps its own copies of both, for CatchUp.
func (g *Graph) Reachability(candidates []UserID, opts TraversalOptions) *ReachTable {
	g.mu.RLock()
	defer g.mu.RUnlock()
	opts.Networks = slices.Clone(opts.Networks)
	if opts.Networks == nil {
		opts.Networks = slices.Clone(Networks)
	}
	return g.reachability(slices.Clone(candidates), opts)
}

// reachability builds the table; the caller holds the read lock and
// hands over candidates and opts, its Networks resolved.
func (g *Graph) reachability(candidates []UserID, opts TraversalOptions) *ReachTable {
	defer mTraversalSeconds.ObserveSince(time.Now())
	if len(g.resources) > 1<<30 {
		panic("socialgraph: too many resources to pack a hit in 32 bits")
	}
	w := g.newWalk(opts)
	// off[r+1] counts the candidates reaching r, then becomes r's next
	// free slot in the arena.
	off := make([]int32, len(g.resources)+1)
	// hits holds each candidate's hits in turn, a resource id and its
	// distance packed as r<<2|d, and candidate i's end at ends[i]. It
	// doubles when it grows: append grows a large slice by a quarter, so
	// a build would allocate about five times what it keeps.
	var hits []uint32
	ends := make([]int, len(candidates))
	for i, u := range candidates {
		w.from(u)
		if need := len(hits) + len(w.touched); need > cap(hits) {
			hits = slices.Grow(hits, max(need, 2*cap(hits))-len(hits))
		}
		for _, r := range w.touched {
			if s := w.dist[r]; s > 0 {
				off[r+1]++
				hits = append(hits, uint32(r)<<2|uint32(s-1))
			}
		}
		ends[i] = len(hits)
	}
	t := &ReachTable{
		off: off, arena: make([]CandidateDistance, len(hits)), bits: make([]uint64, (len(g.resources)+63)/64),
		g: g, cands: candidates, opts: opts, cursor: g.journal.on(), edges: g.edges.Load(),
	}
	for r := 1; r < len(off); r++ {
		if off[r] > 0 {
			t.reached++
			t.bits[(r-1)>>6] |= 1 << ((r - 1) & 63)
		}
		off[r] += off[r-1]
	}
	// Filling advances off[r] to r's end, which is off[r+1]'s start:
	// one shift afterwards restores the starts.
	start := 0
	for i, end := range ends {
		for _, h := range hits[start:end] {
			r := h >> 2
			t.arena[off[r]] = CandidateDistance{Candidate: candidates[i], Distance: int(h & 3)}
			off[r]++
		}
		start = end
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	mTraversals.Add(float64(len(candidates)))
	mTraversalHits.Add(float64(len(hits)))
	return t
}

// patch brings t current from the change journal, or returns nil when
// it must be rebuilt; the caller holds the read lock. Ids below t's
// span keep their list unless removed. Every id past it is new, so
// each gets its list from the reverse index, appended past the end of
// the shared off and arena: t's readers never look there.
func (g *Graph) patch(t *ReachTable) *ReachTable {
	if g.edges.Load() != t.edges {
		return nil
	}
	ids, cursor, ok := g.journal.since(t.cursor)
	if !ok {
		return nil
	}
	next := &ReachTable{
		off: t.off, arena: t.arena, bits: make([]uint64, (len(g.resources)+63)/64),
		reached: t.reached, dead: t.dead,
		g: g, cands: t.cands, opts: t.opts, cursor: cursor, edges: t.edges, rev: t.rev,
	}
	copy(next.bits, t.bits)
	span := t.Span()
	for _, r := range ids {
		if int(r) >= span {
			break
		}
		if g.deleted[r] && next.Reaches(r) {
			next.bits[r>>6] &^= 1 << (r & 63)
			next.reached--
			next.dead += int(t.off[r+1] - t.off[r])
		}
	}
	if len(g.resources) > span {
		if !t.grown.CompareAndSwap(false, true) {
			next.off, next.arena = slices.Clip(next.off), slices.Clip(next.arena)
		}
		if next.rev == nil {
			next.rev = g.newReverseIndex(t)
		}
		best := make([]int8, len(t.cands))
		for r := ResourceID(span); int(r) < len(g.resources); r++ {
			if next.rev.mark(g, t, r, best) {
				next.reached++
				next.bits[r>>6] |= 1 << (r & 63)
				for i, b := range best {
					if b > 0 {
						next.arena = append(next.arena, CandidateDistance{Candidate: t.cands[i], Distance: int(b - 1)})
						best[i] = 0
					}
				}
			}
			next.off = append(next.off, int32(len(next.arena)))
		}
	}
	if next.dead > len(next.arena)-next.dead {
		return nil
	}
	return next
}

// reverseIndex answers, for a resource added after a table was built,
// which of its candidates reach it: Table 1's paths read backwards
// from the resource's creator or container. Lists hold candidate
// indices, ascending.
type reverseIndex struct {
	self map[UserID][]int32 // the indices a user holds in the candidates
	// follow1[n][v] are the candidates following v on the n-th network
	// of the options (friends only when the options include them);
	// follow2[n][x] those reaching x over two such hops, x excluded.
	follow1, follow2 []map[UserID][]int32
	relates          map[ContainerID][]int32 // candidates relating to a container
}

// newReverseIndex builds the reverse index for t's candidates and
// options; the caller holds the read lock. Only the maps t's distance
// reads are built.
func (g *Graph) newReverseIndex(t *ReachTable) *reverseIndex {
	x := &reverseIndex{self: make(map[UserID][]int32)}
	for i, u := range t.cands {
		x.self[u] = append(x.self[u], int32(i))
	}
	if t.opts.MaxDistance < 1 {
		return x
	}
	far, friends := t.opts.MaxDistance >= 2, t.opts.IncludeFriends
	for _, net := range t.opts.Networks {
		m := g.follows[net]
		one, two := make(map[UserID][]int32), map[UserID][]int32(nil)
		if far {
			two = make(map[UserID][]int32)
		}
		for i, u := range t.cands {
			for v := range m[u] {
				if !friends && m[v][u] {
					continue
				}
				addIndex(one, v, i)
				if !far {
					continue
				}
				for y := range m[v] {
					if y != u && (friends || !m[y][v]) {
						addIndex(two, y, i)
					}
				}
			}
		}
		x.follow1, x.follow2 = append(x.follow1, one), append(x.follow2, two)
	}
	if far {
		x.relates = make(map[ContainerID][]int32)
		for i, u := range t.cands {
			for _, c := range g.relatesTo[u] {
				addIndex(x.relates, c, i)
			}
		}
	}
	return x
}

// addIndex appends candidate index i to m[k] once: a builder visits
// one candidate at a time, so a repeat can only be the last entry.
func addIndex[K comparable](m map[K][]int32, k K, i int) {
	if l := m[k]; len(l) == 0 || l[len(l)-1] != int32(i) {
		m[k] = append(l, int32(i))
	}
}

// mark sets best[i] to 1 + the least distance at which candidate i
// reaches r, a resource added after t was built, and reports whether
// any does; the caller holds the read lock. Only SetProfile, AddResource
// and AddContainedResource add a resource without an edge change: a
// profile is reached by its user and over follows of it on its
// network, any other by its creator, over follows of the creator on
// any network, and through its container.
func (x *reverseIndex) mark(g *Graph, t *ReachTable, r ResourceID, best []int8) bool {
	res := &g.resources[r]
	n := slices.Index(t.opts.Networks, res.Network)
	if g.deleted[r] || n < 0 {
		return false
	}
	found := false
	reach := func(cands []int32, d int8) {
		for _, i := range cands {
			if best[i] == 0 || best[i] > d+1 {
				best[i] = d + 1
			}
			found = true
		}
	}
	md := t.opts.MaxDistance
	if p, ok := g.profiles[profileKey{res.Creator, res.Network}]; ok && p == r {
		reach(x.self[res.Creator], 0)
		if md >= 1 {
			reach(x.follow1[n][res.Creator], 1)
		}
		if md >= 2 {
			reach(x.follow2[n][res.Creator], 2)
		}
		return found
	}
	if md >= 1 {
		reach(x.self[res.Creator], 1)
	}
	if md >= 2 {
		for _, one := range x.follow1 {
			reach(one[res.Creator], 2)
		}
		if res.Container != NoContainer {
			reach(x.relates[res.Container], 2)
		}
	}
	return found
}

// ResourceCandidateMap is Reachability as a map from each reachable
// resource to its list, for callers that range over the reached set.
func (g *Graph) ResourceCandidateMap(candidates []UserID, opts TraversalOptions) map[ResourceID][]CandidateDistance {
	t := g.Reachability(candidates, opts)
	out := make(map[ResourceID][]CandidateDistance, t.Len())
	for r := ResourceID(0); int(r) < t.Span(); r++ {
		if cds := t.Of(r); cds != nil {
			out[r] = cds
		}
	}
	return out
}

// DistanceCounts tallies, per network, how many distinct resources are
// reachable from any candidate at each distance (the statistic plotted
// in Fig. 5a). The result maps network → [3]int counts for distances
// 0, 1, 2.
func (g *Graph) DistanceCounts(candidates []UserID, opts TraversalOptions) map[Network][3]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	w := g.newWalk(opts)
	// best is 1 + the least distance any candidate reaches r at, 0 if
	// none does.
	best := make([]int8, len(g.resources))
	var reached []ResourceID
	for _, u := range candidates {
		w.from(u)
		for _, r := range w.touched {
			switch s := w.dist[r]; {
			case s <= 0:
			case best[r] == 0:
				reached = append(reached, r)
				best[r] = s
			case s < best[r]:
				best[r] = s
			}
		}
	}
	out := make(map[Network][3]int)
	for _, r := range reached {
		net := g.resources[r].Network
		counts := out[net]
		counts[best[r]-1]++
		out[net] = counts
	}
	return out
}
