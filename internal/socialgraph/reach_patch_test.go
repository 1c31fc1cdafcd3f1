package socialgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkSameTable compares a caught-up table with a fresh build at every
// id from -1 to one past the last, and their Len and Span.
func checkSameTable(t testing.TB, label string, got, want *ReachTable) {
	t.Helper()
	for r := ResourceID(-1); int(r) <= want.Span(); r++ {
		if g, w := got.Of(r), want.Of(r); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Of(%d) = %v, a rebuild says %v", label, r, g, w)
		}
		if got.Reaches(r) != want.Reaches(r) {
			t.Fatalf("%s: Reaches(%d) = %v, a rebuild says %v", label, r, got.Reaches(r), want.Reaches(r))
		}
	}
	if got.Len() != want.Len() || got.Span() != want.Span() {
		t.Fatalf("%s: Len, Span = %d, %d; a rebuild has %d, %d", label, got.Len(), got.Span(), want.Len(), want.Span())
	}
}

// lists copies every list of t, to show later that t never changed.
func lists(t *ReachTable) [][]CandidateDistance {
	out := make([][]CandidateDistance, t.Span())
	for r := range out {
		out[r] = append([]CandidateDistance(nil), t.Of(ResourceID(r))...)
	}
	return out
}

// recordMutations makes k random record changes, the only kind an
// ingest round makes: standalone and contained adds, profile adds and
// replacements, text updates, removes, and fillers (an add removed at
// once).
func recordMutations(rng *rand.Rand, g *Graph, k int) {
	user := func() UserID { return UserID(rng.Intn(g.NumUsers())) }
	net := func() Network { return Networks[rng.Intn(len(Networks))] }
	for i := 0; i < k; i++ {
		id := ResourceID(rng.Intn(g.NumResources()))
		switch rng.Intn(6) {
		case 0:
			g.AddResource(net(), KindPost, user(), "post")
		case 1:
			if nc := g.NumContainers(); nc > 0 {
				g.AddContainedResource(KindGroupPost, ContainerID(rng.Intn(nc)), user(), "inside")
			}
		case 2:
			g.SetProfile(user(), net(), "a new or replaced profile")
		case 3:
			if !g.ResourceDeleted(id) {
				g.SetResourceText(id, "edited")
			}
		case 4:
			if g.Resource(id).Kind != KindProfile && !g.ResourceDeleted(id) {
				g.RemoveResource(id)
			}
		case 5:
			g.RemoveResource(g.AddResource(net(), KindTweet, user(), "filler"))
		}
	}
}

// edgeMutations are one mutation of each kind that changes an edge;
// each must make a catch-up rebuild.
var edgeMutations = []struct {
	name string
	do   func(g *Graph, a, b UserID)
}{
	{"follows", func(g *Graph, a, b UserID) { g.Follows(a, b, Twitter) }},
	{"befriend", func(g *Graph, a, b UserID) { g.Befriend(a, b, LinkedIn) }},
	{"owns", func(g *Graph, a, _ UserID) { g.Owns(a, g.AddResource(Facebook, KindPost, a, "wall")) }},
	{"annotates", func(g *Graph, _, b UserID) { g.Annotates(b, 0) }},
	{"container", func(g *Graph, a, _ UserID) { g.AddContainer(Facebook, ContainerPage, a, "page", "a page") }},
	{"relates", func(g *Graph, _, b UserID) { g.RelatesTo(b, ContainerID(g.NumContainers()-1)) }},
}

// TestReachPatchMatchesRebuild is the catch-up's oracle: over random
// tombstoned graphs and every traversal option set, after each random
// run of record changes a caught-up table equals a fresh build, was
// patched (no candidate walked) unless its dead entries would outnumber
// its live ones, and left the table it was patched from unchanged —
// also when that table is patched a second time. Every edge change
// rebuilds, and a current table is returned as is.
func TestReachPatchMatchesRebuild(t *testing.T) {
	patched := 0
	for seed := int64(1); seed <= 6; seed++ {
		for k, opts := range traversalSweep() {
			// A fresh graph per option set, so every one sees profile
			// adds before the users' profile slots fill up.
			g := randomTombstonedGraph(rand.New(rand.NewSource(seed)))
			if g.NumContainers() == 0 {
				g.AddContainer(Facebook, ContainerGroup, 0, "club", "a club")
			}
			cands := append(g.Candidates(), 0)
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			label := fmt.Sprintf("seed%d/%+v", seed, opts)
			tab := g.Reachability(cands, opts)
			for round := 0; round < 4; round++ {
				label := fmt.Sprintf("%s round %d", label, round)
				before := lists(tab)
				recordMutations(rng, g, 1+rng.Intn(12))
				walks, patches := mTraversals.Value(), mReachPatches.Value()
				next, rebuilt := tab.CatchUp()
				want := g.Reachability(cands, opts)
				checkSameTable(t, label, next, want)
				if next == tab {
					continue // nothing changed: the table is current as it is
				}
				if rebuilt != mustRebuild(g, tab, want) {
					t.Fatalf("%s: rebuilt %t, but the dead-entry bound says %t", label, rebuilt, !rebuilt)
				}
				if rebuilt {
					continue
				}
				patched++
				if mTraversals.Value() != walks+float64(len(cands)) || mReachPatches.Value() != patches+1 {
					t.Fatalf("%s: a patch walked %v candidates, counted %v patches", label,
						mTraversals.Value()-walks-float64(len(cands)), mReachPatches.Value()-patches)
				}
				if same, rebuilt := next.CatchUp(); same != next || rebuilt {
					t.Fatalf("%s: a current table was not returned as is", label)
				}
				// Patch tab again after more changes: the sibling must
				// leave the first patch, and tab, as they were.
				first := lists(next)
				recordMutations(rng, g, 1+rng.Intn(12))
				again, _ := tab.CatchUp()
				checkSameTable(t, label+" second patch", again, g.Reachability(cands, opts))
				if !reflect.DeepEqual(lists(next), first) || !reflect.DeepEqual(lists(tab), before) {
					t.Fatalf("%s: a patch changed a table already published", label)
				}
				tab = again
			}
			for _, m := range edgeMutations {
				m.do(g, cands[0], (cands[0]+1)%UserID(g.NumUsers()))
				next, rebuilt := tab.CatchUp()
				if !rebuilt {
					t.Fatalf("%s: a %s edge change did not rebuild", label, m.name)
				}
				checkSameTable(t, label+" after "+m.name, next, g.Reachability(cands, opts))
				tab = next
			}
		}
	}
	if patched == 0 {
		t.Fatal("no round patched")
	}
}

// mustRebuild reports whether a patch of tab would leave more dead
// arena entries than live ones on the graph want was built from,
// counting both from the lists rather than trusting tab's own count.
func mustRebuild(g *Graph, tab, want *ReachTable) bool {
	live := 0
	for r := ResourceID(0); int(r) < tab.Span(); r++ {
		if !g.ResourceDeleted(r) {
			live += len(tab.Of(r))
		}
	}
	dead := len(tab.arena) - live
	for r := ResourceID(tab.Span()); int(r) < want.Span(); r++ {
		live += len(want.Of(r))
	}
	return dead > live
}

// TestReachCatchUpDeadBound removes reached resources one catch-up at a
// time: each patches until the arena's dead entries would outnumber its
// live ones, and that catch-up rebuilds into a table with none dead.
func TestReachCatchUpDeadBound(t *testing.T) {
	g := randomTombstonedGraph(rand.New(rand.NewSource(3)))
	cands, opts := g.Candidates(), TraversalOptions{MaxDistance: 2}
	tab := g.Reachability(cands, opts)
	rebuilt := false
	for r := ResourceID(0); int(r) < g.NumResources() && !rebuilt; r++ {
		if !tab.Reaches(r) || g.Resource(r).Kind == KindProfile {
			continue
		}
		g.RemoveResource(r)
		var next *ReachTable
		next, rebuilt = tab.CatchUp()
		want := g.Reachability(cands, opts)
		checkSameTable(t, fmt.Sprintf("after removing %d", r), next, want)
		if rebuilt != mustRebuild(g, tab, want) {
			t.Fatalf("removing %d: rebuilt %t, but the dead-entry bound says %t", r, rebuilt, !rebuilt)
		}
		tab = next
	}
	if !rebuilt || tab.dead != 0 {
		t.Fatalf("removing every reached resource never crossed the dead-entry bound (rebuilt %t, %d dead)", rebuilt, tab.dead)
	}
}

// TestReachCatchUpPastTheJournal: a table whose cursor the journal no
// longer holds is rebuilt.
func TestReachCatchUpPastTheJournal(t *testing.T) {
	f := buildPaperExample()
	tab := f.g.Reachability([]UserID{f.alice, f.bob}, TraversalOptions{MaxDistance: 2})
	post := f.g.AddResource(Twitter, KindTweet, f.alice, "swimming")
	for i := 0; i < JournalWindow; i++ {
		f.g.SetResourceText(post, "churn")
	}
	next, rebuilt := tab.CatchUp()
	if !rebuilt || next.Of(post) == nil {
		t.Fatalf("past the journal: rebuilt %t, Of(added) = %v", rebuilt, next.Of(post))
	}
}

// FuzzReachPatch: a table built on a graph decoded from the input's
// first part, caught up after the rest is applied as mutations, equals
// a fresh build; it rebuilt if any of those mutations changed an edge.
func FuzzReachPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 5, 0x5e, 0xff, 0, 0, 0, 1, 1, 1, 7, 0, 1, 2, 0, 1, 3, 0, 2, 0, 1, 1, 2, 3, 0, 1, 8, 3, 0, 0, 2})
	f.Add([]byte{20, 3, 0x16, 0x0f, 2, 0, 1, 3, 0, 1, 6, 0, 2, 7, 2, 0, 0, 7, 0, 2, 0, 1, 0, 1, 3, 0, 2, 9, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{9, 7, 0x3e, 0xaa, 1, 1, 1, 1, 2, 1, 4, 0, 1, 5, 3, 0, 7, 3, 1, 8, 0, 8, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		split := 0
		if len(data) > 0 {
			split = min(1+int(data[0]), len(data))
		}
		g, cands, opts := graphFromBytes(data[min(1, split):split])
		tab := g.Reachability(cands, opts)
		ops := byteOps(data[split:])
		edges := mutateFromBytes(g, &ops)
		next, rebuilt := tab.CatchUp()
		if edges && !rebuilt {
			t.Fatal("an edge change was patched")
		}
		checkSameTable(t, "caught up", next, g.Reachability(cands, opts))
	})
}
