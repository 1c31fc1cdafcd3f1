// Command loadtest runs the three wall-clock correctness scenarios the
// performance ledger (bench/, BENCHMARK.json) cannot: each needs real
// processes, live deltas under a cache, or a corpus two orders of
// magnitude past the ledger's. Latency numbers in their reports are
// context, not gates — speed claims belong to `make ledger`.
//
// Usage:
//
//	loadtest -scenario scatter|ingest|scale
//	         [-seed N] [-corpus-seed N] [-scale F] [-index-shards N]
//	         [-concurrency N] [-top N] [-request-timeout D]
//	         [-scatter-shards N] [-scatter-requests N] [-scatter-verbose]
//	         [-ingest-rounds N] [-ingest-requests N] [-ingest-touch N]
//	         [-scale-dir DIR] [-scale-requests N] [-scale-chunk-docs N]
//	         [-scale-max-heap-mb N] [-segment-flush-docs N] [-segment-max N]
//	         [-out FILE] [-stamp] [-rev REV]
//
// Every scenario generates its corpus from (-corpus-seed, -scale),
// replays the deterministic internal/loadgen workload seeded by -seed,
// applies its gates unconditionally, and writes a loadgen.Report to
// -out. The default -out is the scenario's gitignored
// BENCH_<n>.run.json, so no run overwrites a committed record unless
// asked to (-out BENCH_10.json regenerates the scale-100 one). A
// missing or unknown -scenario exits 2.
//
// scatter (bench 6, scatter.go) builds the real serve binary, boots
// -scatter-shards shard processes plus a `serve -shards` coordinator
// on loopback ports, and gates three phases: healthy (coordinator
// responses byte-identical to a single process over the same corpus),
// degraded (one shard SIGKILLed mid-run: every query still answers 200
// with the X-Expertfind-Degraded header, the degraded-query counter
// climbs, the pinned query's cross-process timeline assembles, the SLO
// surface is live) and recovered (the shard restarted: byte-identical
// again, the timeline still retained, one pprof capture per shard).
//
// ingest (bench 9, ingest.go) keeps a 4096-entry result cache attached
// while df-preserving deltas are ingested live between phases: after
// every delta at least one cache entry must still hit and across the
// run at least one must have been invalidated, no delta may escalate
// to a full purge, and the final state must rank bit-identically to a
// cold rebuild of the final remote corpus.
//
// scale (bench 10, scale.go) streams the -scale corpus to disk in
// bounded memory, cold-builds the segment index from the stream (or
// reopens one a previous run left in -scale-dir), serves wall-clock
// queries from it, compacts every segment and replays sampled queries:
// at -scale >= 100 the corpus must hold a million users, a cold build
// must seal at least twice, the compaction must run, the replays must
// be bit-identical, and the peak heap must stay under
// -scale-max-heap-mb.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"expertfind"
	"expertfind/internal/loadgen"
)

type options struct {
	seed        int64
	corpusSeed  int64
	scale       float64
	indexShards int

	concurrency int
	top         int
	reqTimeout  time.Duration

	scatterShards  int
	scatterReq     int
	scatterVerbose bool

	ingestRounds int
	ingestReq    int
	ingestTouch  int

	scaleDir       string
	scaleReq       int
	scaleChunkDocs int
	scaleMaxHeapMB int
	segmentFlush   int
	segmentMax     int

	scenario scenario // what -scenario selected

	out   string
	stamp bool
	rev   string
}

// scenario is one -scenario choice: its report's bench number (and so
// its default -out) and the function that runs and gates it.
type scenario struct {
	name  string
	bench int
	run   func(*options) int
}

var scenarios = []scenario{
	{"scatter", 6, runScatter},
	{"ingest", 9, runIngest},
	{"scale", 10, runScale},
}

// selectScenario resolves the -scenario value.
func selectScenario(name string) (scenario, error) {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
		names[i] = sc.name
	}
	return scenario{}, fmt.Errorf("-scenario %q: want one of %s", name, strings.Join(names, ", "))
}

// parseFlags parses args into the run's options; a flag error or an
// unknown scenario is returned, not fatal.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var (
		o    options
		name string
	)
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&name, "scenario", "", "scenario to run: scatter, ingest or scale (required)")
	fs.Int64Var(&o.seed, "seed", 11, "workload seed")
	fs.Int64Var(&o.corpusSeed, "corpus-seed", 7, "corpus generation seed")
	fs.Float64Var(&o.scale, "scale", 0.1, "corpus volume multiplier")
	fs.IntVar(&o.indexShards, "index-shards", 0, "index shards (0 = GOMAXPROCS)")

	fs.IntVar(&o.concurrency, "concurrency", 8, "scatter: closed-loop worker count")
	fs.IntVar(&o.top, "top", 5, "scatter: experts requested per query")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 5*time.Second, "scatter: per-request deadline")

	fs.IntVar(&o.scatterShards, "scatter-shards", 3, "scatter: topology size (shard processes)")
	fs.IntVar(&o.scatterReq, "scatter-requests", 150, "scatter: requests per phase (steady, degraded, recovered)")
	fs.BoolVar(&o.scatterVerbose, "scatter-verbose", false, "scatter: forward child-process logs to stderr")

	fs.IntVar(&o.ingestRounds, "ingest-rounds", 3, "ingest: delta rounds")
	fs.IntVar(&o.ingestReq, "ingest-requests", 300, "ingest: requests per phase")
	fs.IntVar(&o.ingestTouch, "ingest-touch", 12, "ingest: resources edited per delta")

	fs.StringVar(&o.scaleDir, "scale-dir", "", "scale: working directory for the corpus and segments (kept and reused; empty = temp dir)")
	fs.IntVar(&o.scaleReq, "scale-requests", 120, "scale: queries in the scale-query phase")
	fs.IntVar(&o.scaleChunkDocs, "scale-chunk-docs", 25000, "scale: bulk resources per generated stream chunk")
	fs.IntVar(&o.scaleMaxHeapMB, "scale-max-heap-mb", 16384, "scale: peak-heap gate in MB (0 disables)")
	fs.IntVar(&o.segmentFlush, "segment-flush-docs", 0, "scale: segment store memtable flush threshold (0 = default)")
	fs.IntVar(&o.segmentMax, "segment-max", 0, "scale: segment count that triggers compaction (0 = default)")

	fs.StringVar(&o.out, "out", "", "report output path (default: the scenario's BENCH_<n>.run.json)")
	fs.BoolVar(&o.stamp, "stamp", true, "stamp the report with git rev and timestamp")
	fs.StringVar(&o.rev, "rev", "", "override the git revision stamp")
	err := fs.Parse(args)
	if err == nil {
		if o.scenario, err = selectScenario(name); err != nil {
			fmt.Fprintf(stderr, "loadtest: %v\n", err)
		}
	}
	if err != nil {
		return nil, err
	}
	if o.out == "" {
		o.out = fmt.Sprintf("BENCH_%d.run.json", o.scenario.bench)
	}
	return &o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadtest: ")
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the process body: exit 2 for a usage error (parseFlags has
// already said why on stderr), else the scenario's own verdict.
func run(args []string, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	return o.scenario.run(o)
}

func buildSystem(o *options) *expertfind.System {
	t0 := time.Now()
	sys := expertfind.NewSystem(expertfind.Config{
		Seed: o.corpusSeed, Scale: o.scale, IndexShards: o.indexShards,
	})
	st := sys.Stats()
	log.Printf("corpus ready in %v: %d candidates, %d resources indexed",
		time.Since(t0).Round(time.Millisecond), st.Candidates, st.Indexed)
	return sys
}

// writeReport stamps one scenario's phases as its report, writes it to
// -out and logs the per-phase summary.
func writeReport(o *options, driver string, st expertfind.Stats, phases []loadgen.PhaseResult) {
	rep := &loadgen.Report{
		Schema: loadgen.Schema,
		Bench:  o.scenario.bench,
		Mode:   "real",
		Seed:   o.seed,
		Corpus: loadgen.CorpusInfo{
			Seed: o.corpusSeed, Scale: o.scale,
			Candidates: st.Candidates, Documents: st.Indexed,
		},
		Drivers: []loadgen.DriverReport{{Driver: driver, Phases: phases}},
	}
	if o.stamp {
		rep.GitRev = gitRev(o.rev)
		rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if err := rep.WriteFile(o.out); err != nil {
		log.Fatalf("write %s: %v", o.out, err)
	}
	log.Printf("wrote %s", o.out)
	for _, p := range phases {
		extra := ""
		if n := p.ErrorCount(); n > 0 {
			extra += fmt.Sprintf("  errors=%v", p.Errors)
		}
		if len(p.Cache) > 0 {
			extra += fmt.Sprintf("  cache=%v", p.Cache)
		}
		log.Printf("%-9s %-17s %6d req  %8.1f qps  p50=%s p95=%s p99=%s%s",
			driver, p.Name, p.Requests, p.QPS,
			fmtSec(p.Latency.P50), fmtSec(p.Latency.P95), fmtSec(p.Latency.P99), extra)
	}
}

// percentilesOf reads nearest-rank quantiles off per-request latencies
// in seconds; no samples give the zero value.
func percentilesOf(lat []float64) loadgen.Percentiles {
	if len(lat) == 0 {
		return loadgen.Percentiles{}
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return loadgen.Percentiles{P50: at(0.50), P95: at(0.95), P99: at(0.99), P999: at(0.999)}
}

func gitRev(override string) string {
	if override != "" {
		return override
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fmtSec(s float64) string {
	return time.Duration(float64(time.Second) * s).Round(10 * time.Microsecond).String()
}
