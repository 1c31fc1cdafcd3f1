package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// TestSoakLiveIndexGrowth drives the in-process finder through 1500
// closed-loop requests on 8 workers while a background writer
// keeps adding fresh documents to the live sharded index — the
// crawler-indexes-while-serving scenario. Run under -race this is the
// concurrency soak: queries and index growth must coexist without
// data races, and the error rate must stay at zero.
func TestSoakLiveIndexGrowth(t *testing.T) {
	sys := experiments.BuildSystem(dataset.Config{Seed: 5, Scale: 0.05})
	sharded, ok := sys.Finder.Index().(*index.Sharded)
	if !ok {
		t.Fatalf("finder index is %T, want *index.Sharded", sys.Finder.Index())
	}
	pipe := sys.Finder.Pipeline()

	// Background writer: an endless stream of new English documents
	// entering the corpus mid-flight, at fresh DocIDs far above the
	// generated range.
	// Pre-analyze a handful of document variants so the writer's inner
	// loop is dominated by Add itself, maximizing write/read overlap.
	var docs []analysis.Analyzed
	for i := 0; i < 8; i++ {
		text := fmt.Sprintf("Fresh post %d about marathon training pace and camera lenses.", i)
		a, ok := pipe.Analyze(text, nil)
		if !ok {
			t.Fatalf("doc %d rejected by language filter", i)
		}
		docs = append(docs, a)
	}
	stop := make(chan struct{})
	writerDone := make(chan int)
	go func() {
		n := 0
		defer func() { writerDone <- n }()
		for i := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			// A batch per scheduling turn: on a single-P runtime the
			// writer is scheduled rarely, so it makes its turns count.
			for j := 0; j < 64; j++ {
				sharded.Add(socialgraph.ResourceID(10_000_000+i), docs[i%len(docs)])
				i++
				n++
			}
			runtime.Gosched()
		}
	}()

	target := TargetFunc(func(ctx context.Context, need string) Result {
		scores := sys.Finder.FindContext(ctx, need, core.Params{})
		return Result{Class: ClassOK, Bytes: 16 * len(scores)}
	})

	var queries []string
	for _, q := range sys.DS.Queries {
		queries = append(queries, q.Text)
	}
	w := NewWorkload(WorkloadConfig{Seed: 9}, Source{Queries: queries})

	r := NewRunner(Config{Workload: w, Target: target})
	res := r.Run(Phase{Name: "soak", Requests: 1500, Concurrency: 8})[0]
	close(stop)
	added := <-writerDone

	if res.Requests != 1500 {
		t.Errorf("soak ran %d requests, want 1500", res.Requests)
	}
	// Bounded error rate: in-process queries against a live index
	// must not fail at all (sub-1% tolerated to keep the soak from
	// flaking if a future target adds recoverable failure modes).
	if errCount := res.ErrorCount(); errCount*100 > res.Requests {
		t.Errorf("error rate %d/%d exceeds 1%%: %v", errCount, res.Requests, res.Errors)
	}
	if added == 0 {
		t.Error("background writer added no documents")
	}
	t.Logf("soak: %d requests, %d errors, %d docs added concurrently, index now %d docs",
		res.Requests, res.ErrorCount(), added, sharded.NumDocs())
}
