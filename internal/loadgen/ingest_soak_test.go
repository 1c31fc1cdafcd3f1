package loadgen

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/ingest"
	"expertfind/internal/socialgraph"
)

// TestIngestRollingDeltaSoak drives the in-process finder through 1500
// closed-loop requests on 8 workers while a background ingester
// applies rolling update-only deltas to the live graph and in-memory
// store — the serve -ingest-interval scenario. Under -race this is the
// ingest concurrency soak. Two gates:
//
//   - zero taxonomy errors: every query answers ok;
//   - never-torn rankings: every observed ranking equals one of the
//     precomputed discrete corpus states (update-only rounds leave
//     reachability alone and the index delta flips atomically, so no
//     query may observe a blend of two states).
//
// After the soak, the delta-absorbed finder must agree exactly with a
// cold rebuild of the final remote state — the differential gate.
//
// The workload's cold tail is disabled so every sampled need comes
// from the hot pool, whose full expected rankings are precomputed per
// discrete state — the torn-read check is exact for every request.
func TestIngestRollingDeltaSoak(t *testing.T) {
	const (
		shards    = 3
		rounds    = 4
		churnSeed = 31
		churnOps  = 10
	)
	cfg := dataset.Config{Seed: 5, Scale: 0.05}
	params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}

	// The live side: installed system + remote twin + ingester.
	sys, err := experiments.Build(experiments.BuildOptions{Config: cfg, Store: index.StoreOptions{Workers: shards}})
	if err != nil {
		t.Fatal(err)
	}
	installed, finder := sys.DS, sys.Finder
	remote := dataset.Generate(cfg)
	ing := ingest.New(ingest.Config{
		API:     faults.Wrap(remote.Graph, faults.Config{}),
		Graph:   installed.Graph,
		Index:   finder.Index().(ingest.DeltaIndex),
		Pipe:    finder.Pipeline(),
		Finders: []*core.Finder{finder},
	})
	churn := ingest.NewChurn(remote.Graph, ingest.ChurnConfig{Seed: churnSeed, Updates: churnOps})

	// The workload: corpus queries plus synthetic hot needs, no cold
	// tail — every request's need is in w.pool, so every observed
	// ranking can be checked against the precomputed states.
	var queries []string
	for _, q := range installed.Queries {
		queries = append(queries, q.Text)
	}
	w := NewWorkload(WorkloadConfig{Seed: 9, ColdFraction: -1}, Source{Queries: queries})
	needIndex := make(map[string]int, len(w.pool))
	for i, need := range w.pool {
		needIndex[need] = i
	}

	// The discrete states a reader may legally observe: a cold twin
	// churned r rounds — update-only churn is a pure function of
	// (graph, seed), so the twin evolves exactly like the soak's
	// remote will.
	expected := make([][][]core.ExpertScore, rounds+1)
	for r := 0; r <= rounds; r++ {
		twin := dataset.Generate(cfg)
		ch := ingest.NewChurn(twin.Graph, ingest.ChurnConfig{Seed: churnSeed, Updates: churnOps})
		for i := 0; i < r; i++ {
			ch.Round()
		}
		cold, err := experiments.Build(experiments.BuildOptions{Dataset: twin, Store: index.StoreOptions{Workers: shards}})
		if err != nil {
			t.Fatal(err)
		}
		perNeed := make([][]core.ExpertScore, len(w.pool))
		for i, need := range w.pool {
			perNeed[i] = cold.Finder.Find(need, params)
		}
		expected[r] = perNeed
	}

	// Background ingester: rolling deltas spread across the soak.
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			time.Sleep(20 * time.Millisecond)
			churn.Round()
			if _, err := ing.RunOnce(context.Background()); err != nil {
				writerDone <- fmt.Errorf("ingest round %d: %w", i, err)
				return
			}
		}
		writerDone <- nil
	}()

	target := TargetFunc(func(ctx context.Context, need string) Result {
		got := finder.FindContext(ctx, need, params)
		qi, ok := needIndex[need]
		if !ok {
			return Result{Class: Class5xx, Err: fmt.Errorf("need %q outside the hot pool", need)}
		}
		for r := 0; r <= rounds; r++ {
			if reflect.DeepEqual(got, expected[r][qi]) {
				return Result{Class: ClassOK, Bytes: 16 * len(got)}
			}
		}
		return Result{Class: Class5xx, Err: fmt.Errorf("torn ranking for %q: matches no discrete corpus state", need)}
	})

	r := NewRunner(Config{Workload: w, Target: target})
	res := r.Run(Phase{Name: "ingest-soak", Requests: 1500, Concurrency: 8})[0]
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	if res.Requests != 1500 {
		t.Errorf("soak ran %d requests, want 1500", res.Requests)
	}
	if n := res.ErrorCount(); n != 0 {
		t.Errorf("soak taxonomy errors %d/%d: %v (torn or failed rankings)", n, res.Requests, res.Errors)
	}

	// Differential gate: the delta-absorbed system now equals the final
	// discrete state exactly, need by need.
	status := ing.Status()
	if status.Rounds != rounds || status.Updates == 0 {
		t.Fatalf("ingester ran %d rounds with %d updates, want %d rounds with updates applied",
			status.Rounds, status.Updates, rounds)
	}
	for i, need := range w.pool {
		if got := finder.Find(need, params); !reflect.DeepEqual(got, expected[rounds][i]) {
			t.Fatalf("final state: need %d diverged from cold rebuild of the final remote state", i)
		}
	}
	t.Logf("ingest soak: %d requests over %d rolling deltas (%d updates), zero errors",
		res.Requests, status.Rounds, status.Updates)
}
