package loadgen

import (
	"testing"

	"expertfind/internal/rescache"
)

// TestCachedPhase continues one request stream with a result cache
// attached: the runner must account every disposition, and the
// Zipf-skewed workload must produce a hit-dominated phase.
func TestCachedPhase(t *testing.T) {
	sys := testSystem(t)
	runner := NewRunner(Config{
		Workload: NewWorkload(WorkloadConfig{Seed: 11}, SystemSource(sys)),
		Target:   NewFinderTarget(sys, 5),
	})

	steady := runner.Run(Phase{Name: "steady", Requests: 300, Concurrency: 4})[0]
	if steady.Cache != nil {
		t.Fatalf("uncached phase carries cache counts %v", steady.Cache)
	}

	cache := rescache.New(rescache.Options{Capacity: 512})
	sys.SetResultCache(cache.Attach())
	defer sys.SetResultCache(nil)
	cached := runner.Run(Phase{Name: "cached-steady", Requests: 300, Concurrency: 1})[0]

	hits, misses := cached.Cache["hit"], cached.Cache["miss"]
	if hits == 0 || misses == 0 {
		t.Fatalf("cache counts %v, want both hits and misses", cached.Cache)
	}
	if hits+misses != cached.Requests {
		t.Fatalf("cache counts %v do not sum to %d requests", cached.Cache, cached.Requests)
	}
	if hits < misses {
		t.Errorf("hits %d < misses %d: Zipf skew should repeat needs", hits, misses)
	}
}
