package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"strings"
	"time"

	"expertfind"
	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/ingest"
	"expertfind/internal/loadgen"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
)

// The rolling-ingest scenario drives the cached in-process finder
// while live deltas land between phases — the serve -ingest-interval
// deployment, compressed into a gated harness run. An identically
// generated remote twin corpus is edited with update-only,
// df-preserving deltas (each touched text repeats one of its own
// words, so postings move but no term gains or loses a document and
// collection statistics stay fixed); the ingester fetches, diffs and
// applies each delta to the live graph and sharded index, invalidating
// only the result-cache entries whose inputs were touched.
//
// Three gates, all unconditional:
//
//   - scoped survival: after every delta, at least one pre-delta cache
//     entry still serves a first-lookup hit, and across the run at
//     least one entry was invalidated and recomputed — the scenario
//     fails on both wholesale purges and no-op invalidation;
//   - no full purge: an update-only delta must never escalate to a
//     whole-cache drop (collection statistics did not move);
//   - differential: after the last delta, every need — cached hit or
//     fresh compute — must rank bit-identically to a cold rebuild of
//     the final remote corpus.

func runIngest(o *options) int {
	sys := buildSystem(o)
	st := sys.Stats()
	finder := sys.CoreFinder()
	pipe := finder.Pipeline()
	params, err := expertfind.ResolveParams()
	if err != nil {
		log.Printf("INGEST: resolve params: %v", err)
		return 1
	}

	// The remote twin: generated from the same config, so it starts as
	// an exact same-ID replica of the installed corpus.
	remote := dataset.Generate(dataset.Config{
		Seed: o.corpusSeed, Scale: o.scale, IndexShards: o.indexShards,
	})

	cache := rescache.New(rescache.Options{Capacity: 4096, TTL: 5 * time.Minute})
	sys.SetResultCache(cache.Attach())
	ing, err := sys.NewIngester(ingest.Config{
		API:   faults.Wrap(remote.Graph, faults.Config{}),
		Cache: cache,
	})
	if err != nil {
		log.Printf("INGEST: %v", err)
		return 1
	}

	workload := loadgen.NewWorkload(loadgen.WorkloadConfig{
		Seed: o.seed, ColdFraction: -1, // every need cacheable and re-askable
	}, loadgen.SystemSource(sys))

	warm, _, _ := ingestPhase("warm", o.ingestReq, workload, finder, params)
	phases := []loadgen.PhaseResult{warm}

	code := 0
	cursor := 0
	survivedTotal, droppedTotal := uint64(0), uint64(0)
	for round := 1; round <= o.ingestRounds; round++ {
		var touched int
		touched, cursor = dfPreservingDelta(remote, pipe, cursor, o.ingestTouch)
		if touched == 0 {
			log.Printf("INGEST GATE: round %d: no eligible resources for a df-preserving delta", round)
			return 1
		}
		rep, err := ing.RunOnce(context.Background())
		if err != nil {
			log.Printf("INGEST: round %d: %v", round, err)
			return 1
		}
		if rep.FullPurge {
			log.Printf("INGEST GATE: round %d: update-only delta escalated to a full cache purge", round)
			code = 1
		}
		if rep.Updates != touched {
			log.Printf("INGEST GATE: round %d: delta applied %d updates, edited %d resources", round, rep.Updates, touched)
			code = 1
		}
		phase, survived, dropped := ingestPhase(fmt.Sprintf("delta-steady-%d", round), o.ingestReq, workload, finder, params)
		phases = append(phases, phase)
		survivedTotal += survived
		droppedTotal += dropped
		if survived == 0 {
			log.Printf("INGEST GATE: round %d: no cache entry survived the delta (dropped %d) — invalidation is not scoped",
				round, rep.CacheDropped)
			code = 1
		} else {
			log.Printf("round %d: %d resources edited, %d cache entries dropped, %d first lookups still hit, %d recomputed",
				round, touched, rep.CacheDropped, survived, dropped)
		}
	}
	if droppedTotal == 0 {
		log.Printf("INGEST GATE: no cache entry was invalidated across %d deltas — the scoped path went unexercised", o.ingestRounds)
		code = 1
	}

	code |= ingestDifferential(sys, remote, workload, o, params)

	writeReport(o, "inprocess", st, phases)
	if code == 0 {
		log.Printf("ingest gates passed: %d survivals and %d scoped recomputes across %d deltas, final state matches cold rebuild",
			survivedTotal, droppedTotal, o.ingestRounds)
	}
	return code
}

// ingestPhase replays n needs from the head of the workload stream
// through the cached finder, single-threaded under a wall clock, and
// reports the phase plus the first-lookup dispositions: how many
// distinct needs hit on their first ask (their entry survived whatever
// happened since the last phase) and how many missed.
func ingestPhase(name string, n int, w *loadgen.Workload, finder *core.Finder, params core.Params) (loadgen.PhaseResult, uint64, uint64) {
	lat := make([]float64, 0, n)
	cacheCounts := make(map[string]uint64)
	seen := make(map[string]bool)
	firstHits, firstMisses := uint64(0), uint64(0)
	ctx := context.Background()
	t0 := time.Now()
	for seq := uint64(0); seq < uint64(n); seq++ {
		need := w.Need(seq)
		q0 := time.Now()
		_, status := finder.FindCachedContext(ctx, need, params)
		lat = append(lat, time.Since(q0).Seconds())
		if status != "" {
			cacheCounts[string(status)]++
		}
		if !seen[need] {
			seen[need] = true
			if status == core.CacheHit {
				firstHits++
			} else {
				firstMisses++
			}
		}
	}
	wall := time.Since(t0).Seconds()
	res := loadgen.PhaseResult{
		Name:            name,
		Mode:            "closed",
		Concurrency:     1,
		Requests:        uint64(n),
		Cache:           cacheCounts,
		DurationSeconds: wall,
		Latency:         percentilesOf(lat),
	}
	if wall > 0 {
		res.QPS = float64(n) / wall
	}
	return res, firstHits, firstMisses
}

// dfPreservingDelta edits up to n live remote resources starting at
// the rotating cursor, giving each text one repeated copy of its own
// longest word: the postings move (term frequencies change) but no
// term gains or loses a document and the language filter cannot flip,
// so the delta is update-only with collection statistics fixed. It
// returns the number of resources edited and the advanced cursor.
func dfPreservingDelta(remote *dataset.Dataset, pipe *analysis.Pipeline, cursor, n int) (int, int) {
	touched := 0
	total := remote.Graph.NumResources()
	for off := 0; off < total && touched < n; off++ {
		id := socialgraph.ResourceID((cursor + off) % total)
		if remote.Graph.ResourceDeleted(id) {
			continue
		}
		r := remote.Graph.Resource(id)
		oldA, ok := pipe.Analyze(r.Text, r.URLs)
		if !ok {
			continue
		}
		longest := ""
		for _, w := range strings.Fields(r.Text) {
			if len(w) > len(longest) {
				longest = w
			}
		}
		newText := r.Text + " " + longest
		newA, ok := pipe.Analyze(newText, r.URLs)
		if !ok || reflect.DeepEqual(oldA.Terms, newA.Terms) {
			continue
		}
		remote.Graph.SetResourceText(id, newText, r.URLs...)
		touched++
		if touched == n {
			return touched, (cursor + off + 1) % total
		}
	}
	return touched, cursor
}

// ingestDifferential is the closing gate: every workload need — served
// from cache or freshly computed — must rank bit-identically to a cold
// finder rebuilt from the final remote corpus state.
func ingestDifferential(sys *expertfind.System, remote *dataset.Dataset, w *loadgen.Workload, o *options, params core.Params) int {
	coldSys, err := experiments.Build(experiments.BuildOptions{
		Dataset: remote, Config: dataset.Config{IndexShards: o.indexShards},
	})
	if err != nil {
		log.Printf("INGEST GATE: cold rebuild: %v", err)
		return 1
	}
	cold := coldSys.Finder

	finder := sys.CoreFinder()
	ctx := context.Background()
	checked := make(map[string]bool)
	for seq := uint64(0); seq < uint64(o.ingestReq); seq++ {
		need := w.Need(seq)
		if checked[need] {
			continue
		}
		checked[need] = true
		want := cold.Find(need, params)
		cached, _ := finder.FindCachedContext(ctx, need, params)
		if !reflect.DeepEqual(cached, want) {
			log.Printf("INGEST GATE: cached ranking for %q diverged from the cold rebuild", need)
			return 1
		}
		if live := finder.Find(need, params); !reflect.DeepEqual(live, want) {
			log.Printf("INGEST GATE: live ranking for %q diverged from the cold rebuild", need)
			return 1
		}
	}
	log.Printf("differential gate passed: %d needs bit-identical to the cold rebuild of the final remote state", len(checked))
	return 0
}
