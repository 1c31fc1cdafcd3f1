// Command bench is the repository's one performance ledger: four
// workloads over the paper's pipeline (analyse need → Eq. (1) match →
// Eq. (3) distance-weighted aggregate), each reporting the same
// end-to-end metrics from a best-of-K per-request estimator, and a
// traced mode that attributes the time to the layers by calling them
// one by one. BENCHMARK.json at the repository root names the command,
// the workloads, the metrics and their regression bounds; README.md
// beside this file explains every choice and how to read the numbers.
//
//	bash bench/run.sh --workload seg_topk --seed 11 --seconds 12 --trace 0
//	bash bench/run.sh --workload seg_topk --trace 1        # per-layer table
//	bash bench/run.sh --aa --workload mem_find,http_cached # same code twice
//
// The last line of standard output is one JSON object (correct,
// attempted, failed, metrics); everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// corpusSeed fixes every corpus; --seed varies only the requests (and
// the churn), so runs with different seeds measure the same system.
const corpusSeed = 7

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, on every workload.
// BENCHMARK.json repeats the list with each metric's bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"find_p50_ms", "ms"},
	{"find_p95_ms", "ms"},
	{"find_qps", "finds/s"},
	{"find_cpu_ms_per_op", "ms"},
	{"find_allocs_per_op", "mallocs/find"},
	{"find_kb_per_op", "KiB/find"},
	{"peak_rss_mb", "MiB"},
	{"live_heap_mb", "MiB"},
}

// sizing holds every dimension of the four workloads, so the smoke
// test can shrink them all and nothing else in the code names a size.
type sizing struct {
	memScale    float64 // corpus scale of mem_find and http_cached
	streamScale float64 // stream corpus scale of seg_*; above 1, or no bulk chunks are emitted
	candidates  int     // candidate pool of the stream corpus (0: the default 40)
	chunkDocs   int     // bulk resources per stream chunk and the store's FlushDocs

	findN int // requests per pass, mem_find
	topkN int // requests per pass, seg_topk
	topK  int // WithTopK bound of seg_topk

	httpN     int     // requests per pass, http_cached
	httpPool  int     // hot needs the Zipf skew draws from
	httpCache int     // result-cache capacity, deliberately below httpPool
	httpZipf  float64 // skew exponent
	httpTail  float64 // share of never-repeated needs

	churnRounds  int // ingest rounds per episode
	churnFinds   int // finds after each round
	churnAdds    int
	churnUpdates int
	churnRemoves int
	churnMaxSegs int // the episode store's MaxSegments, low enough that the final Maintain compacts

	refSlots  int            // machine-reference slots per pass (calib.go)
	minPasses int            // K never drops below this, however short --seconds is
	setups    map[string]int // set-ups per run, by workload; setup_s is their median

	traceN      int // requests per traced pass
	tracePasses int
	docSample   int // resources in the analysis / store-build probes

	pins map[string]string // workload → stream hash for seed 11; nil skips the check
}

// full is the committed sizing. It was cut to the driver's time cap
// (92 runs in 3420 s, so about 27 s a run on a VM that is at times a
// third slower than at others): the cheap set-ups repeated three times,
// the 6 s segment build once, each pass short enough that five fit in
// 12 s on two shared cores.
var full = sizing{
	memScale:    0.5,
	streamScale: 1.01,
	chunkDocs:   4000,

	findN: 2000,
	topkN: 1500,
	topK:  10,

	httpN:     5000,
	httpPool:  1200,
	httpCache: 512,
	httpZipf:  1.1,
	httpTail:  0.1,

	churnRounds:  4,
	churnFinds:   150,
	churnAdds:    300,
	churnUpdates: 300,
	churnRemoves: 150,
	churnMaxSegs: 5,

	refSlots:  50,
	minPasses: 5,
	setups:    map[string]int{"mem_find": 3, "seg_topk": 1, "seg_churn": 1, "http_cached": 3},

	traceN:      300,
	tracePasses: 3,
	docSample:   3000,

	pins: pinned,
}

// refEvery is the number of requests between two reference slots of a
// pass of n requests.
func (sz sizing) refEvery(n int) int { return max(1, n/max(1, sz.refSlots)) }

// workload is one set of inputs. setup builds everything from nothing
// up to a first answered find, and close releases what it built;
// prepare draws the request stream from the seed; pass replays the
// stream once from identical state; trace repeats a short stream
// calling the layers one by one.
type workload interface {
	setup() error
	prepare() error
	requests() (finds, writes int)
	pass(p *pass) error
	trace(tr *traceRun) error
	close()
}

var workloads = map[string]func(sz sizing, seed int64) workload{
	"mem_find": func(sz sizing, seed int64) workload { return &memFind{sz: sz, seed: seed} },
	"seg_topk": func(sz sizing, seed int64) workload { return &segTopK{segBase: segBase{sz: sz, seed: seed}} },
	"seg_churn": func(sz sizing, seed int64) workload {
		return &segChurn{segBase: segBase{sz: sz, seed: seed, keepTexts: true}}
	},
	"http_cached": func(sz sizing, seed int64) workload { return &httpCached{sz: sz, seed: seed} },
}

var workloadOrder = []string{"mem_find", "seg_topk", "seg_churn", "http_cached"}

// pass is what one replay of a workload's stream produced.
type pass struct {
	lat       []time.Duration // per find, in stream order
	hash      []uint64        // ranking hash per find; hashFailed for an error
	write     []time.Duration // per write round (seg_churn); empty elsewhere
	ref       []time.Duration // the machine reference, timed at every slot (calib.go)
	refCPU    []time.Duration // process CPU each of those slots used
	writeDocs int             // adds + updates + removes applied
	state     string          // end-of-pass state that must repeat (seg_churn: Store.Status)
	failed    int             // failures the workload detected itself
	meter     blockMeter
}

func newPass(finds, writes int) *pass {
	return &pass{
		lat:   make([]time.Duration, finds),
		hash:  make([]uint64, finds),
		write: make([]time.Duration, writes),
	}
}

// blockMeter accumulates process CPU and allocation over the find
// blocks of a pass. Verification (hashing, JSON decoding) happens
// outside the blocks so the figures are the system's, not the
// benchmark's.
type blockMeter struct {
	cpu            time.Duration
	mallocs, bytes float64
	cpu0           time.Duration
	mem0           runtime.MemStats
}

// refMallocs and refBytes are what one reference call allocates,
// measured once per run (referenceAllocs).
var refMallocs, refBytes float64

// slot times the machine reference between two finds of a metered
// block and keeps its CPU and allocation out of the block's account.
func (p *pass) slot() {
	c0 := cpuTime()
	p.ref = append(p.ref, timeReference())
	used := cpuTime() - c0
	p.refCPU = append(p.refCPU, used)
	p.meter.cpu -= used
	p.meter.mallocs -= refMallocs
	p.meter.bytes -= refBytes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *blockMeter) start() {
	runtime.ReadMemStats(&b.mem0)
	b.cpu0 = cpuTime()
}

func (b *blockMeter) stop() {
	b.cpu += cpuTime() - b.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.mallocs += float64(m.Mallocs - b.mem0.Mallocs)
	b.bytes += float64(m.TotalAlloc - b.mem0.TotalAlloc)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sz       sizing
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// run executes one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func run(cfg runConfig) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	// Explicit, so a change of runtime defaults cannot move the ledger.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetGCPercent(100)
	logf("%s seed %d: %s, %d cpus, GOMAXPROCS %d", cfg.workload, cfg.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	refMallocs, refBytes = referenceAllocs()
	w := mk(cfg.sz, cfg.seed)
	defer w.close()
	if cfg.trace {
		return runTraced(w, cfg)
	}

	setups := max(1, cfg.sz.setups[cfg.workload])
	var setupS []float64
	for i := 0; i < setups; i++ {
		w.close()
		runtime.GC() // the previous instance is garbage; do not bill its sweep to this set-up
		before := referenceNow()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		speed := float64(refNominal) / float64((before+referenceNow())/2)
		setupS = append(setupS, took.Seconds()*speed)
	}
	logf("set-up ×%d at nominal speed: %.3f s", setups, setupS)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("drawing requests: %w", err)
	}

	finds, writes := w.requests()
	warm := newPass(finds, writes)
	if err := w.pass(warm); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	res := &result{Attempted: finds + writes, Failed: warm.failed, Metrics: map[string]metric{}}
	for _, h := range warm.hash {
		if h == hashFailed {
			res.Failed++
		}
	}
	streamID := streamHash(warm.hash, warm.state)
	if want, pinnedSeed := cfg.sz.pins[cfg.workload], cfg.seed == pinSeed; pinnedSeed && want != "" && want != streamID {
		logf("FAIL: stream hash %s, pinned %s: a ranking moved", streamID, want)
		res.Failed++
	}

	var best, bestWrite, bestRef bestOf
	var cpuMs, allocs, kb []float64
	start := time.Now()
	for k := 0; k < cfg.sz.minPasses || time.Since(start).Seconds() < cfg.seconds; k++ {
		p := newPass(finds, writes)
		if err := w.pass(p); err != nil {
			return nil, fmt.Errorf("pass %d: %w", k+1, err)
		}
		res.Attempted += finds + writes
		res.Failed += p.failed
		for i, h := range p.hash {
			if h != warm.hash[i] {
				res.Failed++
			}
		}
		if p.state != warm.state {
			logf("FAIL: pass %d ended in state %q, warm-up in %q", k+1, p.state, warm.state)
			res.Failed++
		}
		if err := best.fold(p.lat); err != nil {
			return nil, err
		}
		if err := bestWrite.fold(p.write); err != nil {
			return nil, err
		}
		if err := bestRef.fold(p.ref); err != nil {
			return nil, err
		}
		// CPU time inflates with the machine's contention too; scale
		// each pass by what its own reference slots cost in CPU.
		cpuSpeed := float64(refCPUNominal) / float64(sorted(p.refCPU)[len(p.refCPU)/2])
		cpuMs = append(cpuMs, ms(p.meter.cpu)/float64(finds)*cpuSpeed)
		allocs = append(allocs, p.meter.mallocs/float64(finds))
		kb = append(kb, p.meter.bytes/1024/float64(finds))
	}
	measured := time.Since(start)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}

	asc := sorted(best.best)
	p50, err := quantile(asc, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := quantile(asc, 0.95)
	if err != nil {
		return nil, err
	}
	// The machine's speed over the measured phase, from the reference
	// slots under the same best-of-K rule as the requests (calib.go).
	speed := float64(refNominal) * float64(len(bestRef.best)) / float64(bestRef.sum())
	// One waiting caller's time for the whole stream. On seg_churn it
	// includes the ingest rounds the caller's finds wait behind, which
	// is how the write path reaches a bounded end-to-end number.
	critical := best.sum() + bestWrite.sum()
	values := map[string]float64{
		"setup_s":            median(setupS),
		"find_p50_ms":        ms(p50) * speed,
		"find_p95_ms":        ms(p95) * speed,
		"find_qps":           float64(finds) / (critical.Seconds() * speed),
		"find_cpu_ms_per_op": median(cpuMs),
		"find_allocs_per_op": median(allocs),
		"find_kb_per_op":     median(kb),
		"peak_rss_mb":        float64(ru.Maxrss) / 1024, // Linux reports KiB
		"live_heap_mb":       float64(mem.HeapAlloc) / (1 << 20),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	res.Correct = res.Failed == 0

	logf("machine speed %.3f of nominal over %d reference slots (raw p50 %.4f ms, p95 %.4f ms)", speed, len(bestRef.best), ms(p50), ms(p95))
	logf("measured %.1f s: %d passes × %d finds (+%d write rounds), stream hash %s, %d failed of %d",
		measured.Seconds(), best.passes, finds, writes, streamID, res.Failed, res.Attempted)
	if p99, err := quantile(asc, 0.99); err == nil {
		logf("diagnostic p99 %.3f ms, max %.3f ms", ms(p99), ms(asc[len(asc)-1]))
	}
	if writes > 0 {
		logf("write path: %d docs in %.1f ms best-of (%.0f docs/s)", warm.writeDocs, ms(bestWrite.sum()),
			float64(warm.writeDocs)/bestWrite.sum().Seconds())
	}
	return res, nil
}

func printResult(res *result, defs []metricDef) error {
	for _, d := range defs {
		m := res.Metrics[d.name]
		logf("  %-36s %14.4f %s", d.name, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+" (comma-separated with -aa)")
		seed    = flag.Int64("seed", pinSeed, "request seed; the corpus seed is fixed")
		seconds = flag.Float64("seconds", 12, "length of the measured phase; never fewer than five passes")
		trace   = flag.Int("trace", 0, "1: call the layers one by one under spans and report the per-layer metrics")
		out     = flag.String("out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.trace.json)")
		aa      = flag.Bool("aa", false, "run each workload twice in fresh processes and hold the pair to the bounds in -spec")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition -aa reads the bounds from")
	)
	flag.Parse()
	if flag.NArg() > 0 || *name == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(strings.Split(*name, ","), *seed, *seconds, *spec))
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.trace.json", *name, *seed))
	}
	res, err := run(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, sz: full})
	if err != nil {
		logf("bench: %v", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	if err := printResult(res, defs); err != nil {
		logf("bench: %v", err)
		os.Exit(1)
	}
}
