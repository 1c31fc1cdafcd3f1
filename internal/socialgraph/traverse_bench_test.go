package socialgraph_test

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/socialgraph"
)

// BenchmarkResourceCandidateMap is one reachability rebuild: table is
// the work a find pays after every ingest round invalidates the
// traversal cache, map is the adapter the map-ranging callers pay on
// top of it. Both cover the 40 candidates of a scale-1 dataset under
// the default traversal and under the widest one the ingester's
// invalidation uses.
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
