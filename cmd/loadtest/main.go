// Command loadtest is the million-user scale run: the one wall-clock
// correctness gate the performance ledger (bench/, BENCHMARK.json)
// cannot hold, because it needs a corpus two orders of magnitude past
// the ledger's. Latency numbers in its report are context, not gates —
// speed claims belong to `make ledger`. The multi-process scatter and
// live-ingest gates are go tests (internal/loadgen's
// TestScatterClusterChaos, internal/httpapi's
// TestIngestScopedInvalidationE2E).
//
// Usage:
//
//	loadtest [flags]
//
// It streams the (-corpus-seed, -scale) corpus to disk in bounded
// memory, cold-builds the segment index from the stream (or reopens
// one a previous run left in -scale-dir), serves the deterministic
// internal/loadgen workload seeded by -seed from it, compacts every
// segment and replays sampled queries. Its gates are always on and
// listed in OPERATIONS.md ("Gates"); a failed gate exits 1, a flag
// error 2. The git-stamped loadgen.Report goes to -out, by default the
// gitignored BENCH_10.run.json.
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
	seed       int64
	corpusSeed int64
	scale      float64

	scaleDir       string
	scaleReq       int
	scaleChunkDocs int
	scaleMaxHeapMB int
	segmentFlush   int
	segmentMax     int

	out string
}

// minScaleRequests is the fewest -scale-requests whose replay sample
// (a quarter of them, at most 32) compares at least one ranking across
// compaction.
const minScaleRequests = 4

// parseFlags parses args into the run's options; a flag error or a
// refused value is returned, not fatal.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var o options
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 11, "workload seed")
	fs.Int64Var(&o.corpusSeed, "corpus-seed", 7, "corpus generation seed")
	fs.Float64Var(&o.scale, "scale", 10, "corpus volume multiplier")
	fs.StringVar(&o.scaleDir, "scale-dir", "", "working directory for the corpus and segments, kept and reused (empty = a temp dir, removed after)")
	fs.IntVar(&o.scaleReq, "scale-requests", 120, "queries in the scale-query phase; fewer than 4 exits 2, since no ranking would be replayed")
	fs.IntVar(&o.scaleChunkDocs, "scale-chunk-docs", 25000, "bulk resources per generated stream chunk")
	fs.IntVar(&o.scaleMaxHeapMB, "scale-max-heap-mb", 16384, "peak-heap gate in MB across the whole run (0 disables)")
	fs.IntVar(&o.segmentFlush, "segment-flush-docs", 0, "segment store memtable flush threshold (0 = the store default, 50000)")
	fs.IntVar(&o.segmentMax, "segment-max", 0, "segment count that triggers compaction (0 = the store default, 8)")
	fs.StringVar(&o.out, "out", "BENCH_10.run.json", "report output path; BENCH_10.json rewrites the committed scale-100 record")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.scaleReq < minScaleRequests {
		err := fmt.Errorf("-scale-requests %d: want at least %d, or no ranking is replayed across compaction", o.scaleReq, minScaleRequests)
		fmt.Fprintf(stderr, "loadtest: %v\n", err)
		return nil, err
	}
	return &o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadtest: ")
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the process body: exit 2 for a usage error (parseFlags has
// already said why on stderr), else the scale run's verdict.
func run(args []string, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	return runScale(o)
}

// writeReport stamps the run's phases as its report, writes it to -out
// and logs the per-phase summary.
func writeReport(o *options, st expertfind.Stats, phases []loadgen.PhaseResult) {
	rep := &loadgen.Report{
		Schema:      loadgen.Schema,
		Bench:       10,
		GitRev:      gitRev(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Mode:        "real",
		Seed:        o.seed,
		Corpus: loadgen.CorpusInfo{
			Seed: o.corpusSeed, Scale: o.scale,
			Candidates: st.Candidates, Documents: st.Indexed,
		},
		Drivers: []loadgen.DriverReport{{Driver: "inprocess", Phases: phases}},
	}
	if err := rep.WriteFile(o.out); err != nil {
		log.Fatalf("write %s: %v", o.out, err)
	}
	log.Printf("wrote %s", o.out)
	for _, p := range phases {
		log.Printf("%-17s %8d req  %10.1f qps  p50=%s p95=%s p99=%s",
			p.Name, p.Requests, p.QPS,
			fmtSec(p.Latency.P50), fmtSec(p.Latency.P95), fmtSec(p.Latency.P99))
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

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fmtSec(s float64) string {
	return time.Duration(float64(time.Second) * s).Round(10 * time.Microsecond).String()
}
