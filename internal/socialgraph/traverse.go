package socialgraph

import (
	"cmp"
	"slices"
	"time"

	"expertfind/internal/telemetry"
)

// Traversal metrics: the reachability table is the expensive structure
// behind expert ranking; these expose how often it is rebuilt (cache
// misses upstream) and how much graph it walks.
var (
	mTraversals = telemetry.Default().Counter(
		"expertfind_graph_traversals_total",
		"Per-candidate ResourcesWithin traversals performed by Reachability.")
	mTraversalHits = telemetry.Default().Counter(
		"expertfind_graph_traversal_resources_total",
		"Resource hits (candidate, resource, distance) collected by Reachability.")
	mTraversalSeconds = telemetry.Default().Histogram(
		"expertfind_graph_traversal_duration_seconds",
		"Wall time of one full Reachability table build.", nil)
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
// resource-id order, and off, indexed by resource id, bounds each, so
// a lookup is two loads and no hash.
type ReachTable struct {
	// off has one entry per resource id of the graph plus one: the
	// candidates reaching r are arena[off[r]:off[r+1]].
	off     []int32
	arena   []CandidateDistance
	reached int
}

// Of returns the candidates reaching r, nil when r is out of range or
// unreached. The list is a sub-slice of the table's arena, capped so
// an append copies.
func (t *ReachTable) Of(r ResourceID) []CandidateDistance {
	// A negative id wraps past every entry.
	if uint32(r) >= uint32(len(t.off)-1) {
		return nil
	}
	lo, hi := t.off[r], t.off[r+1]
	if lo == hi {
		return nil
	}
	return t.arena[lo:hi:hi]
}

// Len returns the number of reachable resources.
func (t *ReachTable) Len() int { return t.reached }

// Span returns the number of resource ids the table covers: Of is nil
// for every id at or above it.
func (t *ReachTable) Span() int { return len(t.off) - 1 }

// Reachability builds the ReachTable of candidates under opts.
func (g *Graph) Reachability(candidates []UserID, opts TraversalOptions) *ReachTable {
	defer mTraversalSeconds.ObserveSince(time.Now())
	g.mu.RLock()
	defer g.mu.RUnlock()
	type hit struct {
		r    ResourceID
		cand int32 // index into candidates
		d    int8
	}
	w := g.newWalk(opts)
	// off[r+1] counts the candidates reaching r, then becomes r's next
	// free slot in the arena.
	off := make([]int32, len(g.resources)+1)
	var hits []hit
	for i, u := range candidates {
		w.from(u)
		for _, r := range w.touched {
			if s := w.dist[r]; s > 0 {
				off[r+1]++
				hits = append(hits, hit{r: r, cand: int32(i), d: s - 1})
			}
		}
	}
	t := &ReachTable{off: off, arena: make([]CandidateDistance, len(hits))}
	for r := 1; r < len(off); r++ {
		if off[r] > 0 {
			t.reached++
		}
		off[r] += off[r-1]
	}
	// Filling advances off[r] to r's end, which is off[r+1]'s start:
	// one shift afterwards restores the starts.
	for _, h := range hits {
		t.arena[off[h.r]] = CandidateDistance{Candidate: candidates[h.cand], Distance: int(h.d)}
		off[h.r]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	mTraversals.Add(float64(len(candidates)))
	mTraversalHits.Add(float64(len(hits)))
	return t
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
