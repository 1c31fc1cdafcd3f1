package loadgen

import (
	"context"
	"fmt"
	"reflect"
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
// closed-loop requests on 8 workers while a background writer keeps
// growing the live index — the crawler-indexes-while-serving scenario —
// on a store with no directory whose memtable every find cuts into
// three ranges. The writer cycles through batches of fresh documents,
// each AddBatch followed by an ApplyDelta that removes a third of the
// batch and rewrites another third, and one ApplyDelta that returns the
// index to where it began. Run under -race this is the concurrency
// soak. Two gates:
//
//   - zero taxonomy errors: every query answers ok;
//   - never-torn rankings: each write is one atomic step, so every
//     observed ranking equals the ranking of the state before or after
//     some write, all of them precomputed by replaying one cycle.
func TestSoakLiveIndexGrowth(t *testing.T) {
	sys, err := experiments.Build(experiments.BuildOptions{
		Config: dataset.Config{Seed: 5, Scale: 0.05},
		Store:  index.StoreOptions{Workers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := sys.Finder.Index().(*index.Store)
	if store.Dir() != "" || store.Workers() != 3 {
		t.Fatalf("finder index has dir %q and %d workers, want a store with no directory on 3", store.Dir(), store.Workers())
	}
	pipe := sys.Finder.Pipeline()
	params := core.Params{}

	// Document variants the writer indexes at fresh DocIDs far above the
	// generated range: they move the collection statistics, so every
	// state ranks differently, but no need can reach them.
	var variants []analysis.Analyzed
	for i := 0; i < 8; i++ {
		text := fmt.Sprintf("Fresh post %d about marathon training pace and camera lenses.", i)
		a, ok := pipe.Analyze(text, nil)
		if !ok {
			t.Fatalf("doc %d rejected by language filter", i)
		}
		variants = append(variants, a)
	}
	var writes []func()
	var live []index.Doc // the writer's documents after the writes so far
	next := socialgraph.ResourceID(10_000_000)
	for b := 0; b < 4; b++ {
		batch := make([]index.Doc, 48)
		for j := range batch {
			batch[j] = index.Doc{ID: next, A: variants[int(next)%len(variants)]}
			next++
		}
		writes = append(writes, func() {
			if err := store.AddBatch(batch); err != nil {
				panic(err)
			}
		})
		var d index.Delta
		for j, doc := range batch {
			switch j % 3 {
			case 0:
				d.Removes = append(d.Removes, doc)
			case 1:
				u := index.DocUpdate{ID: doc.ID, Old: doc.A, New: variants[(j+b)%len(variants)]}
				d.Updates = append(d.Updates, u)
				live = append(live, index.Doc{ID: doc.ID, A: u.New})
			default:
				live = append(live, doc)
			}
		}
		writes = append(writes, func() { store.ApplyDelta(d) })
	}
	revert := index.Delta{Removes: live}
	writes = append(writes, func() { store.ApplyDelta(revert) })

	// The workload: corpus queries plus synthetic hot needs, no cold
	// tail, so every request's need has precomputed rankings.
	var queries []string
	for _, q := range sys.DS.Queries {
		queries = append(queries, q.Text)
	}
	w := NewWorkload(WorkloadConfig{Seed: 9, ColdFraction: -1}, Source{Queries: queries})
	needIndex := make(map[string]int, len(w.pool))
	for i, need := range w.pool {
		needIndex[need] = i
	}
	rankings := func() [][]core.ExpertScore {
		out := make([][]core.ExpertScore, len(w.pool))
		for i, need := range w.pool {
			out[i], _ = sys.Finder.Find(context.Background(), need, params)
		}
		return out
	}
	// expected[i] is the state after the first i writes of a cycle; the
	// last write brings back expected[0].
	expected := [][][]core.ExpertScore{rankings()}
	for _, write := range writes[:len(writes)-1] {
		write()
		expected = append(expected, rankings())
	}
	writes[len(writes)-1]()
	if !reflect.DeepEqual(rankings(), expected[0]) {
		t.Fatal("the writer's cycle does not return the index to its starting rankings")
	}

	stop := make(chan struct{})
	writerDone := make(chan int)
	go func() {
		n := 0
		defer func() { writerDone <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			writes[n%len(writes)]()
			n++
			runtime.Gosched()
		}
	}()

	target := TargetFunc(func(ctx context.Context, need string) Result {
		got, _ := sys.Finder.Find(ctx, need, params)
		qi, ok := needIndex[need]
		if !ok {
			return Result{Class: Class5xx, Err: fmt.Errorf("need %q outside the hot pool", need)}
		}
		for _, state := range expected {
			if reflect.DeepEqual(got, state[qi]) {
				return Result{Class: ClassOK, Bytes: 16 * len(got)}
			}
		}
		return Result{Class: Class5xx, Err: fmt.Errorf("torn ranking for %q: matches no state between writes", need)}
	})

	r := NewRunner(Config{Workload: w, Target: target})
	res := r.Run(Phase{Name: "soak", Requests: 1500, Concurrency: 8})[0]
	close(stop)
	n := <-writerDone

	if res.Requests != 1500 {
		t.Errorf("soak ran %d requests, want 1500", res.Requests)
	}
	if errCount := res.ErrorCount(); errCount != 0 {
		t.Errorf("soak taxonomy errors %d/%d: %v (torn or failed rankings)", errCount, res.Requests, res.Errors)
	}
	if n == 0 {
		t.Error("background writer made no write")
	}
	if !reflect.DeepEqual(rankings(), expected[n%len(writes)]) {
		t.Errorf("after %d writes the rankings are not those of write %d of the cycle", n, n%len(writes))
	}
	t.Logf("soak: %d requests, %d errors, %d writes concurrently, index now %d docs",
		res.Requests, res.ErrorCount(), n, store.NumDocs())
}
