package socialgraph_test

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/socialgraph"
)

// BenchmarkResourceCandidateMap is one reachability rebuild, the work a
// find pays after every ingest round invalidates the traversal cache:
// the 40 candidates of a scale-1 dataset under the default traversal
// and under the widest one the ingester's invalidation uses.
func BenchmarkResourceCandidateMap(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 1})
	for _, bc := range []struct {
		name string
		opts socialgraph.TraversalOptions
	}{
		{"default", socialgraph.TraversalOptions{MaxDistance: 2}},
		{"widest", socialgraph.TraversalOptions{MaxDistance: 2, IncludeFriends: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(ds.Graph.ResourceCandidateMap(ds.Candidates, bc.opts)) == 0 {
					b.Fatal("nothing reachable")
				}
			}
		})
	}
}
