package socialgraph_test

import (
	"math/rand"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/socialgraph"
)

// BenchmarkResourceCandidateMap is one reachability build: table is
// what a finder's first find under a traversal pays, and what a
// catch-up pays after an edge change; map is the adapter the
// map-ranging callers pay on top of it. Both cover the 40 candidates
// of a scale-1 dataset under the default traversal and under the
// widest one the ingester's invalidation uses.
func BenchmarkResourceCandidateMap(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 1})
	for _, bc := range []struct {
		name string
		opts socialgraph.TraversalOptions
	}{
		{"default", socialgraph.TraversalOptions{MaxDistance: 2}},
		{"widest", socialgraph.TraversalOptions{MaxDistance: 2, IncludeFriends: true}},
	} {
		b.Run(bc.name+"/table", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ds.Graph.Reachability(ds.Candidates, bc.opts).Len() == 0 {
					b.Fatal("nothing reachable")
				}
			}
		})
		b.Run(bc.name+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(ds.Graph.ResourceCandidateMap(ds.Candidates, bc.opts)) == 0 {
					b.Fatal("nothing reachable")
				}
			}
		})
	}
}

// churnRound makes one ingest round's record changes, in the shape of
// the ledger's seg_churn rounds: 300 adds (a third of them inside a
// container), 300 text updates and 150 removes.
func churnRound(rng *rand.Rand, g *socialgraph.Graph) {
	users, conts := g.NumUsers(), g.NumContainers()
	for i := 0; i < 300; i++ {
		u := socialgraph.UserID(rng.Intn(users))
		if i%3 == 0 {
			g.AddContainedResource(socialgraph.KindGroupPost, socialgraph.ContainerID(rng.Intn(conts)), u, "post")
		} else {
			g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, u, "tweet")
		}
	}
	for i := 0; i < 450; i++ {
		id := socialgraph.ResourceID(rng.Intn(g.NumResources()))
		switch r := g.Resource(id); {
		case g.ResourceDeleted(id):
		case i < 300:
			g.SetResourceText(id, "edited", r.URLs...)
		case r.Kind != socialgraph.KindProfile && r.Kind != socialgraph.KindContainerDesc:
			g.RemoveResource(id)
		}
	}
}

// BenchmarkReachCatchUp is what one ingest round costs the default
// traversal's table of a scale-1 dataset's 40 candidates: catchup
// patches it from the change journal, as an ingester does, and rebuild
// builds it anew, the work a patch saves.
// The round's mutations run off the clock; the graph restarts from a
// snapshot every 64 rounds, followed by one untimed round, so the timed
// rounds are steady state (reverse index built, arena grown).
func BenchmarkReachCatchUp(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 1})
	snap := ds.Graph.Snapshot()
	opts := socialgraph.TraversalOptions{MaxDistance: 2}
	for _, bc := range []struct {
		name string
		next func(g *socialgraph.Graph, t *socialgraph.ReachTable) *socialgraph.ReachTable
	}{
		{"catchup", func(_ *socialgraph.Graph, t *socialgraph.ReachTable) *socialgraph.ReachTable {
			next, _ := t.CatchUp()
			return next
		}},
		{"rebuild", func(g *socialgraph.Graph, _ *socialgraph.ReachTable) *socialgraph.ReachTable {
			return g.Reachability(ds.Candidates, opts)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			var g *socialgraph.Graph
			var t *socialgraph.ReachTable
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%64 == 0 {
					var err error
					if g, err = socialgraph.FromSnapshot(snap); err != nil {
						b.Fatal(err)
					}
					t = g.Reachability(ds.Candidates, opts)
					churnRound(rng, g)
					t = bc.next(g, t)
				}
				churnRound(rng, g)
				b.StartTimer()
				if t = bc.next(g, t); t.Len() == 0 {
					b.Fatal("nothing reachable")
				}
			}
		})
	}
}
