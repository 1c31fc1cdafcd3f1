// Benchmarks regenerating every table and figure of the paper's
// evaluation (§3) over the full-scale synthetic corpus, plus ablation
// benches for the design choices listed in EXPERIMENTS.md ("Beyond the
// paper"). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the wall time of recomputing one full
// experiment; the shared corpus and index are built once per process
// and excluded from the timings.
package expertfind_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"expertfind"
	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// BenchmarkFig5aDataset regenerates the corpus-distribution statistic
// of Fig. 5a (resources per network and distance).
func BenchmarkFig5aDataset(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig5a(s)
	}
}

// BenchmarkFig5bGroundTruth regenerates the expert/expertise
// distribution of Fig. 5b.
func BenchmarkFig5bGroundTruth(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig5b(s)
	}
}

// BenchmarkFig6WindowSweep regenerates the window-size sensitivity
// analysis of Fig. 6 (11 window fractions × 2 distances × 30 queries).
func BenchmarkFig6WindowSweep(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig6(s)
	}
}

// BenchmarkFig7AlphaSweep regenerates the α sensitivity analysis of
// Fig. 7 (11 α values × 3 distances × 30 queries).
func BenchmarkFig7AlphaSweep(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig7(s)
	}
}

// BenchmarkTable2Friends regenerates the Twitter friends comparison of
// Table 2.
func BenchmarkTable2Friends(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(s)
	}
}

// BenchmarkFig8FriendCurves regenerates the 11-point precision and
// DCG curves of Fig. 8.
func BenchmarkFig8FriendCurves(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(s)
	}
}

// BenchmarkTable3Networks regenerates the per-network, per-distance
// comparison of Table 3 (12 configurations × 30 queries).
func BenchmarkTable3Networks(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable3(s)
	}
}

// BenchmarkFig9DistanceCurves regenerates the per-distance curves of
// Fig. 9.
func BenchmarkFig9DistanceCurves(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig9(s)
	}
}

// BenchmarkTable4Domains regenerates the per-domain breakdown of
// Table 4 (7 domains × 3 distances × 4 sources).
func BenchmarkTable4Domains(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable4(s)
	}
}

// BenchmarkFig10UserF1 regenerates the per-candidate F1 analysis of
// Fig. 10.
func BenchmarkFig10UserF1(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig10(s)
	}
}

// BenchmarkFig11Delta regenerates the differential retrieved-expert
// analysis of Fig. 11.
func BenchmarkFig11Delta(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig11(s)
	}
}

// BenchmarkBaselineComparison regenerates the ranking-method
// comparison (random / Balog Model 1 / Balog Model 2 / social VSM).
func BenchmarkBaselineComparison(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunBaselineComparison(s)
	}
}

// BenchmarkSignificance regenerates the paired randomization tests of
// the headline claims.
func BenchmarkSignificance(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunSignificance(s)
	}
}

// BenchmarkCrawlRobustness regenerates the crawl-access sweep (the
// §3.7 privacy-limits analysis) on a reduced-scale corpus: each of
// the five access levels re-crawls and re-indexes the corpus.
func BenchmarkCrawlRobustness(b *testing.B) {
	s := experiments.BuildSystem(dataset.Config{Seed: 1, Scale: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunCrawlRobustness(s)
	}
}

// BenchmarkNetworkAgreement regenerates the cross-network Kendall-tau
// agreement analysis.
func BenchmarkNetworkAgreement(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunNetworkAgreement(s)
	}
}

// BenchmarkSingleQuery measures one end-to-end Find call under the
// default configuration — the latency a crowd-routing application
// would observe per question.
func BenchmarkSingleQuery(b *testing.B) {
	s := experiments.Shared()
	p := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Finder.Find(context.Background(), "why is copper a good conductor of electricity?", p)
	}
}

// BenchmarkFindInstrumented measures the same query as
// BenchmarkSingleQuery but under an active telemetry trace, the way
// the HTTP serving path runs it — the delta against
// BenchmarkSingleQuery is the full observability overhead (span
// bookkeeping plus stage histograms), which should be negligible
// next to the milliseconds of traversal and scoring.
func BenchmarkFindInstrumented(b *testing.B) {
	s := experiments.Shared()
	p := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	tracer := telemetry.NewTracer(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, tr := tracer.Start(context.Background(), "bench find", "")
		s.Finder.Find(ctx, "why is copper a good conductor of electricity?", p)
		tr.Finish()
	}
}

// --- Ablation benches (EXPERIMENTS.md, "Ablations") -------------------
//
// Each ablation reports the quality impact of one design choice via
// b.ReportMetric (MAP under the changed configuration vs. the
// default), so `-bench Ablation` doubles as a quality regression
// harness.

// BenchmarkAblationEntityMatching compares pure keyword matching
// (α = 1) with the paper's mixed default (α = 0.6).
func BenchmarkAblationEntityMatching(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	var mixed, keywordOnly experiments.Metrics
	for i := 0; i < b.N; i++ {
		mixed = s.Evaluate(core.Params{
			Alpha: 0.6, WindowSize: 100,
			Traversal: socialgraph.TraversalOptions{MaxDistance: 2},
		})
		keywordOnly = s.Evaluate(core.Params{
			Alpha: 1.0, WindowSize: 100,
			Traversal: socialgraph.TraversalOptions{MaxDistance: 2},
		})
	}
	b.ReportMetric(mixed.MAP, "MAP-mixed")
	b.ReportMetric(keywordOnly.MAP, "MAP-keyword-only")
}

// BenchmarkAblationDistanceWeights compares the paper's linear wr in
// [0.5, 1] with uniform weights.
func BenchmarkAblationDistanceWeights(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	var linear, uniform experiments.Metrics
	for i := 0; i < b.N; i++ {
		linear = s.Evaluate(core.Params{
			WindowSize: 100,
			Traversal:  socialgraph.TraversalOptions{MaxDistance: 2},
		})
		uniform = s.Evaluate(core.Params{
			WindowSize:      100,
			DistanceWeights: [3]float64{1, 1, 1},
			Traversal:       socialgraph.TraversalOptions{MaxDistance: 2},
		})
	}
	b.ReportMetric(linear.MAP, "MAP-linear-wr")
	b.ReportMetric(uniform.MAP, "MAP-uniform-wr")
}

// BenchmarkAblationWindowTruncation compares the 100-resource window
// against using every matching resource.
func BenchmarkAblationWindowTruncation(b *testing.B) {
	s := experiments.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	var window, all experiments.Metrics
	for i := 0; i < b.N; i++ {
		window = s.Evaluate(core.Params{
			WindowSize: 100,
			Traversal:  socialgraph.TraversalOptions{MaxDistance: 2},
		})
		all = s.Evaluate(core.Params{
			WindowSize: -1,
			Traversal:  socialgraph.TraversalOptions{MaxDistance: 2},
		})
	}
	b.ReportMetric(window.MAP, "MAP-window100")
	b.ReportMetric(all.MAP, "MAP-all-matches")
}

// BenchmarkAblationURLEnrichment rebuilds a reduced-scale system with
// and without URL content extraction and compares retrieval quality —
// the enrichment step is the expensive part of the analysis pipeline,
// so this bench exposes its full cost/benefit.
func BenchmarkAblationURLEnrichment(b *testing.B) {
	cfg := dataset.Config{Seed: 1, Scale: 0.25}
	p := core.Params{WindowSize: 100, Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	var with, without experiments.Metrics
	for i := 0; i < b.N; i++ {
		with = experiments.BuildSystem(cfg).Evaluate(p)
		textOnly, err := experiments.Build(experiments.BuildOptions{Config: cfg, Analysis: &analysis.Options{}})
		if err != nil {
			b.Fatal(err)
		}
		without = textOnly.Evaluate(p)
	}
	b.ReportMetric(with.MAP, "MAP-enriched")
	b.ReportMetric(without.MAP, "MAP-text-only")
}

// BenchmarkSystemBuild measures the one-off cost of generating and
// indexing a reduced-scale corpus end to end (generation, URL
// extraction, language identification, text processing, annotation,
// indexing).
func BenchmarkSystemBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.BuildSystem(dataset.Config{Seed: int64(i + 1), Scale: 0.1})
	}
}

// streamCorpus is the performance ledger's segment corpus: seed 7,
// scale 1.01, bulk resources in 4000-doc chunks.
var streamCorpus = dataset.StreamConfig{Config: dataset.Config{Seed: 7, Scale: 1.01}, ChunkDocs: 4000}

// BenchmarkStreamWrite measures generating the segment corpus into a
// gzip corpus file, chunk by chunk.
func BenchmarkStreamWrite(b *testing.B) {
	path := filepath.Join(b.TempDir(), "corpus.stream.json.gz")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := corpusio.WriteStreamFile(path, streamCorpus, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamBuild measures a cold build of the segment corpus's
// file into a fresh segment directory, one FlushDocs-sized seal per
// chunk: load, analysis, AddBatch and seal, as a server's first start
// from a corpus file does.
func BenchmarkStreamBuild(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "corpus.stream.json.gz")
	if _, err := corpusio.WriteStreamFile(path, streamCorpus, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs, err := os.MkdirTemp(dir, "segments-")
		if err != nil {
			b.Fatal(err)
		}
		sys, err := expertfind.NewSystemFromStream(path, segs, expertfind.StreamOptions{FlushDocs: streamCorpus.ChunkDocs})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sys.SegmentStore().Close()
		os.RemoveAll(segs)
		b.StartTimer()
	}
}

// BenchmarkPublicFind measures the facade's end-to-end query path.
func BenchmarkPublicFind(b *testing.B) {
	sys := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Find("can you list some famous songs of michael jackson?"); err != nil {
			b.Fatal(err)
		}
	}
}
