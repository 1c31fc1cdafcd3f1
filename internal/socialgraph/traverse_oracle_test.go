package socialgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The map-based traversal below is the reference the dense kernel in
// traverse.go is checked against: a fresh map per candidate, the
// tombstone and network checks on every record, followed lists sorted
// on every call, and an inversion that appends per resource.

func oracleResourcesWithin(g *Graph, u UserID, opts TraversalOptions) []Hit {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return oracleWithin(g, u, opts)
}

func oracleWithin(g *Graph, u UserID, opts TraversalOptions) []Hit {
	g.user(u)
	nets := opts.Networks
	if nets == nil {
		nets = Networks
	}
	inNet := make(map[Network]bool, len(nets))
	for _, n := range nets {
		inNet[n] = true
	}

	dist := make(map[ResourceID]int)
	record := func(r ResourceID, d int) {
		if g.deleted[r] || !inNet[g.resources[r].Network] {
			return
		}
		if prev, ok := dist[r]; !ok || d < prev {
			dist[r] = d
		}
	}

	for _, net := range nets {
		if rid, ok := g.profiles[profileKey{u, net}]; ok {
			record(rid, 0)
		}
	}

	if opts.MaxDistance >= 1 {
		for _, r := range g.owns[u] {
			record(r, 1)
		}
		for _, r := range g.creates[u] {
			record(r, 1)
		}
		for _, r := range g.annotates[u] {
			record(r, 1)
		}
		for _, c := range g.relatesTo[u] {
			record(g.containers[c].Desc, 1)
		}
		for _, net := range nets {
			for _, v := range g.followed(u, net, opts.IncludeFriends) {
				if rid, ok := g.profiles[profileKey{v, net}]; ok {
					record(rid, 1)
				}
			}
		}
	}

	if opts.MaxDistance >= 2 {
		for _, c := range g.relatesTo[u] {
			for _, r := range g.contains[c] {
				record(r, 2)
			}
		}
		for _, net := range nets {
			for _, v := range g.followed(u, net, opts.IncludeFriends) {
				for _, r := range g.owns[v] {
					record(r, 2)
				}
				for _, r := range g.creates[v] {
					record(r, 2)
				}
				for _, r := range g.annotates[v] {
					record(r, 2)
				}
				for _, c := range g.relatesTo[v] {
					record(g.containers[c].Desc, 2)
				}
				for _, w := range g.followed(v, net, opts.IncludeFriends) {
					if w == u {
						continue
					}
					if rid, ok := g.profiles[profileKey{w, net}]; ok {
						record(rid, 2)
					}
				}
			}
		}
	}

	hits := make([]Hit, 0, len(dist))
	for r, d := range dist {
		hits = append(hits, Hit{Resource: r, Distance: d})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Distance != hits[j].Distance {
			return hits[i].Distance < hits[j].Distance
		}
		return hits[i].Resource < hits[j].Resource
	})
	return hits
}

// oracleResourceCandidateMap also returns the number of hits, the
// amount expertfind_graph_traversal_resources_total must advance by.
func oracleResourceCandidateMap(g *Graph, candidates []UserID, opts TraversalOptions) (map[ResourceID][]CandidateDistance, int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hits := 0
	out := make(map[ResourceID][]CandidateDistance)
	for _, u := range candidates {
		for _, h := range oracleWithin(g, u, opts) {
			out[h.Resource] = append(out[h.Resource], CandidateDistance{Candidate: u, Distance: h.Distance})
			hits++
		}
	}
	return out, hits
}

func oracleDistanceCounts(g *Graph, candidates []UserID, opts TraversalOptions) map[Network][3]int {
	type key struct {
		net Network
		r   ResourceID
	}
	best := make(map[key]int)
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, u := range candidates {
		for _, h := range oracleWithin(g, u, opts) {
			k := key{g.resources[h.Resource].Network, h.Resource}
			if prev, ok := best[k]; !ok || h.Distance < prev {
				best[k] = h.Distance
			}
		}
	}
	out := make(map[Network][3]int)
	for k, d := range best {
		counts := out[k.net]
		counts[d]++
		out[k.net] = counts
	}
	return out
}

// randomTombstonedGraph is randomGraph spread over every network:
// LinkedIn posts, Facebook and LinkedIn follows and friendships, and
// about a fifth of the non-profile resources tombstoned.
func randomTombstonedGraph(r *rand.Rand) *Graph {
	g := randomGraph(r)
	n := g.NumUsers()
	for i := 0; i < n; i++ {
		rid := g.AddResource(LinkedIn, KindUpdate, UserID(r.Intn(n)), "update")
		if r.Intn(2) == 0 {
			g.Owns(UserID(r.Intn(n)), rid)
		}
	}
	for i := 0; i < 2*n; i++ {
		a, b := UserID(r.Intn(n)), UserID(r.Intn(n))
		if a == b {
			continue
		}
		net := Networks[r.Intn(len(Networks))]
		if r.Intn(3) == 0 {
			g.Befriend(a, b, net)
		} else {
			g.Follows(a, b, net)
		}
	}
	for id := ResourceID(0); int(id) < g.NumResources(); id++ {
		if g.Resource(id).Kind != KindProfile && r.Intn(5) == 0 {
			g.RemoveResource(id)
		}
	}
	return g
}

// traversalSweep is every option set the oracle test compares under.
func traversalSweep() []TraversalOptions {
	netSets := [][]Network{nil, {Facebook}, {Twitter}, {LinkedIn}, {Twitter, Facebook}}
	var out []TraversalOptions
	for d := 0; d <= 2; d++ {
		for _, friends := range []bool{false, true} {
			for _, nets := range netSets {
				out = append(out, TraversalOptions{MaxDistance: d, IncludeFriends: friends, Networks: nets})
			}
		}
	}
	return out
}

// checkAgainstOracle compares the traversal entry points — the dense
// table at every id from -1 to one past the last, and the map adapter
// over it — and the two traversal counters with the map-based oracle.
func checkAgainstOracle(t testing.TB, g *Graph, cands []UserID, opts TraversalOptions) {
	t.Helper()
	for _, u := range cands {
		if got, want := g.ResourcesWithin(u, opts), oracleResourcesWithin(g, u, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("ResourcesWithin(%d, %+v) = %v, oracle %v", u, opts, got, want)
		}
	}
	want, hits := oracleResourceCandidateMap(g, cands, opts)
	trav0, hits0 := mTraversals.Value(), mTraversalHits.Value()
	table := g.Reachability(cands, opts)
	for r := ResourceID(-1); int(r) <= g.NumResources(); r++ {
		if got := table.Of(r); !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("Reachability(%v, %+v).Of(%d) = %v, oracle %v", cands, opts, r, got, want[r])
		}
	}
	if table.Len() != len(want) {
		t.Fatalf("Reachability(%v, %+v).Len() = %d, oracle reaches %d", cands, opts, table.Len(), len(want))
	}
	if got := g.ResourceCandidateMap(cands, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("ResourceCandidateMap(%v, %+v) = %v, oracle %v", cands, opts, got, want)
	}
	if d := mTraversals.Value() - trav0; d != float64(2*len(cands)) {
		t.Fatalf("traversals counter advanced by %v over two builds, want %d", d, 2*len(cands))
	}
	if d := mTraversalHits.Value() - hits0; d != float64(2*hits) {
		t.Fatalf("traversal resources counter advanced by %v over two builds, want %d", d, 2*hits)
	}
	if got, want := g.DistanceCounts(cands, opts), oracleDistanceCounts(g, cands, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("DistanceCounts(%v, %+v) = %v, oracle %v", cands, opts, got, want)
	}
}

func TestTraversalMatchesOracle(t *testing.T) {
	sweep := traversalSweep()
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomTombstonedGraph(r)
		if len(g.deleted) == 0 {
			g.RemoveResource(g.CreatedBy(0)[0])
		}
		all := make([]UserID, g.NumUsers())
		for i := range all {
			all[i] = UserID(i)
		}
		subset := g.Candidates()
		dup := []UserID{all[len(all)-1], all[0], all[len(all)-1]}
		for _, cands := range [][]UserID{all, subset, dup} {
			for _, opts := range sweep {
				t.Run(fmt.Sprintf("seed%d/%d-cands/%+v", seed, len(cands), opts), func(t *testing.T) {
					checkAgainstOracle(t, g, cands, opts)
				})
			}
		}
	}
}

// TestResourceCandidateMapListsAreCapped: a consumer appending to one
// resource's list must not write into the next resource's, in the
// table or in the map over it.
func TestResourceCandidateMapListsAreCapped(t *testing.T) {
	f := buildPaperExample()
	cands, opts := []UserID{f.alice, f.bob}, TraversalOptions{MaxDistance: 2}
	rcm := f.g.ResourceCandidateMap(cands, opts)
	before := fmt.Sprint(rcm)
	for _, cds := range rcm {
		_ = append(cds, CandidateDistance{Candidate: -1, Distance: 9})
	}
	if after := fmt.Sprint(rcm); after != before {
		t.Fatalf("append through one list changed the map:\n%s\n%s", before, after)
	}

	table := f.g.Reachability(cands, opts)
	before = fmt.Sprint(table.arena)
	for r := ResourceID(0); int(r) < table.Span(); r++ {
		_ = append(table.Of(r), CandidateDistance{Candidate: -1, Distance: 9})
	}
	if after := fmt.Sprint(table.arena); after != before {
		t.Fatalf("append through one list changed the table:\n%s\n%s", before, after)
	}
}

// byteOps is fuzz input consumed one small decision at a time; an
// exhausted input decides 0.
type byteOps []byte

func (b *byteOps) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// graphFromBytes builds a graph, a candidate list and traversal options
// from fuzz input. Every byte is consumed as a small decision, so any
// input yields a valid graph.
func graphFromBytes(data []byte) (*Graph, []UserID, TraversalOptions) {
	b := byteOps(data)
	g := New()
	nUsers := 2 + b.next()%8
	for i := 0; i < nUsers; i++ {
		g.AddUser("u", i%2 == 0)
	}
	o := b.next()
	opts := TraversalOptions{MaxDistance: o % 3, IncludeFriends: o&4 != 0}
	for i, net := range Networks {
		if o>>(3+i)&1 != 0 {
			opts.Networks = append(opts.Networks, net)
		}
	}
	candMask := b.next()
	mutateFromBytes(g, &b)
	var cands []UserID
	for u := 0; u < nUsers; u++ {
		if candMask>>(u%8)&1 != 0 {
			cands = append(cands, UserID(u))
		}
	}
	if candMask&1 != 0 && len(cands) > 0 {
		cands = append(cands, cands[0]) // a duplicate candidate
	}
	return g, cands, opts
}

// mutateFromBytes applies every remaining decision of b to g as one of
// nine mutations, and reports whether any changed an edge (a container
// added, ownership, an annotation, a membership or a follow).
func mutateFromBytes(g *Graph, b *byteOps) (edges bool) {
	nUsers := g.NumUsers()
	user := func() UserID { return UserID(b.next() % nUsers) }
	net := func() Network { return Networks[b.next()%len(Networks)] }
	for len(*b) > 0 {
		nc := g.NumContainers()
		switch b.next() % 9 {
		case 0:
			g.SetProfile(user(), net(), "p")
		case 1:
			g.AddResource(net(), KindPost, user(), "r")
		case 2:
			g.AddContainer(net(), ContainerGroup, user(), "c", "d")
			edges = true
		case 3:
			if nc > 0 {
				g.AddContainedResource(KindGroupPost, ContainerID(b.next()%nc), user(), "g")
			}
		case 4:
			if n := g.NumResources(); n > 0 {
				g.Owns(user(), ResourceID(b.next()%n))
				edges = true
			}
		case 5:
			if n := g.NumResources(); n > 0 {
				g.Annotates(user(), ResourceID(b.next()%n))
				edges = true
			}
		case 6:
			if nc > 0 {
				g.RelatesTo(user(), ContainerID(b.next()%nc))
				edges = true
			}
		case 7:
			if a, c := user(), user(); a != c {
				g.Follows(a, c, net())
				edges = true
			}
		case 8:
			if n := g.NumResources(); n > 0 {
				r := ResourceID(b.next() % n)
				if g.Resource(r).Kind != KindProfile && !g.ResourceDeleted(r) {
					g.RemoveResource(r)
				}
			}
		}
	}
	return edges
}

func FuzzResourceCandidateMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0xff, 0, 0, 0, 1, 1, 1, 7, 0, 1, 1, 7, 1, 2, 1, 4, 0, 1})
	f.Add([]byte{3, 6, 0x0f, 2, 0, 1, 3, 0, 1, 6, 0, 2, 7, 2, 0, 0, 7, 0, 2, 0, 8, 2, 4, 1, 2})
	f.Add([]byte{7, 0x3e, 0xaa, 1, 1, 1, 1, 2, 1, 4, 0, 1, 5, 3, 0, 7, 3, 1, 1, 7, 1, 3, 1, 8, 0, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cands, opts := graphFromBytes(data)
		checkAgainstOracle(t, g, cands, opts)
	})
}
