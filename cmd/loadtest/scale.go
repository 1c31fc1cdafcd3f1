package main

import (
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"expertfind"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/loadgen"
)

// The scale scenario is the million-user end-to-end run: it streams a
// -scale corpus to disk in bounded memory (chunked JSONL, texts
// dropped as each chunk lands), cold-builds the disk-backed segment
// index from the stream (or reopens one a previous run left in
// -scale-dir), serves wall-clock queries from it, then compacts every
// segment and replays a sample of those queries — the rankings must
// be bit-identical across the layout change. The report records each
// phase's wall time, throughput and the store's structural counters,
// plus the peak heap observed across the whole run so "bounded memory"
// is a gated number, not a claim.
//
// Gates (always on): at -scale >= 100 the corpus must hold at least a
// million users; a cold build must seal at least two segments; the
// compaction pass must run; post-compaction rankings must reproduce
// the pre-compaction ones bit for bit; and the peak heap must stay
// under -scale-max-heap-mb.

// scaleUserGate is the corpus-size floor enforced at -scale >= 100.
const scaleUserGate = 1_000_000

// heapWatcher samples the live heap in the background so the report
// can carry the peak across generation, build and serving.
type heapWatcher struct {
	mu   sync.Mutex
	max  uint64
	stop chan struct{}
	done chan struct{}
}

func newHeapWatcher() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mu.Lock()
	if ms.HeapAlloc > w.max {
		w.max = ms.HeapAlloc
	}
	w.mu.Unlock()
}

func (w *heapWatcher) peak() uint64 {
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max
}

func (w *heapWatcher) close() {
	close(w.stop)
	<-w.done
}

func runScale(o *options) int {
	dir := o.scaleDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "expertfind-scale-*")
		if err != nil {
			log.Printf("SCALE: workdir: %v", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("SCALE: workdir: %v", err)
		return 1
	}
	corpus := filepath.Join(dir, "corpus.stream.json.gz")
	segDir := filepath.Join(dir, "segments")

	heap := newHeapWatcher()
	defer heap.close()
	var phases []loadgen.PhaseResult

	// Phase: scale-generate — stream the corpus to disk. An existing
	// file in a caller-provided -scale-dir is reused, so iterating on
	// the later phases doesn't regenerate millions of documents.
	if _, err := os.Stat(corpus); err == nil && o.scaleDir != "" {
		log.Printf("reusing stream corpus %s", corpus)
	} else {
		res, code := scaleGenerate(o, corpus, heap)
		if code != 0 {
			return code
		}
		phases = append(phases, res)
	}

	// Phase: scale-build (empty segment directory: analyze the stream
	// chunk by chunk) or scale-open (segments already on disk).
	t0 := time.Now()
	sys, err := expertfind.NewSystemFromStream(corpus, segDir, expertfind.StreamOptions{
		FlushDocs:   o.segmentFlush,
		MaxSegments: o.segmentMax,
	})
	if err != nil {
		log.Printf("SCALE: build: %v", err)
		return 1
	}
	store := sys.SegmentStore()
	defer store.Close()
	st := store.Status()
	// A cold build seals at least once; a reopened store never does.
	coldBuild := st.Seals > 0
	buildName := "scale-open"
	if coldBuild {
		buildName = "scale-build"
	}
	stats := sys.Stats()
	log.Printf("%s in %v: %d users, %d docs in %d segments (%.1f MB on disk, %d seals)",
		buildName, time.Since(t0).Round(time.Millisecond), stats.Users,
		st.LiveDocs, len(st.Segments), float64(st.DiskBytes)/(1<<20), st.Seals)
	phases = append(phases, scalePhase(buildName, uint64(st.LiveDocs), time.Since(t0), nil, map[string]uint64{
		"users":           uint64(stats.Users),
		"docs":            uint64(st.LiveDocs),
		"segments":        uint64(len(st.Segments)),
		"seals":           st.Seals,
		"disk_bytes":      uint64(st.DiskBytes),
		"peak_heap_bytes": heap.peak(),
	}))

	// Phase: scale-query — wall-clock queries through the public Find
	// API, single-threaded so percentiles measure scoring, not worker
	// interleaving. The head of the stream is kept for the replay gate.
	workload := loadgen.NewWorkload(loadgen.WorkloadConfig{Seed: o.seed}, loadgen.SystemSource(sys))
	for seq := uint64(0); seq < 8; seq++ {
		if _, err := sys.Find(workload.Need(seq)); err != nil {
			log.Printf("SCALE: warmup find: %v", err)
			return 1
		}
	}
	sample := o.scaleReq / 4
	if sample > 32 {
		sample = 32
	}
	before := make([][]expertfind.Expert, sample)
	lat := make([]float64, 0, o.scaleReq)
	t0 = time.Now()
	for seq := uint64(0); seq < uint64(o.scaleReq); seq++ {
		need := workload.Need(seq)
		q0 := time.Now()
		experts, err := sys.Find(need)
		lat = append(lat, time.Since(q0).Seconds())
		if err != nil {
			log.Printf("SCALE: find %q: %v", need, err)
			return 1
		}
		if int(seq) < sample {
			before[seq] = experts
		}
	}
	phases = append(phases, scalePhase("scale-query", uint64(o.scaleReq), time.Since(t0), lat, map[string]uint64{
		"segments":        uint64(len(st.Segments)),
		"peak_heap_bytes": heap.peak(),
	}))

	// Phase: scale-compact — merge every segment, then replay the
	// sampled queries: a layout change must not move a single bit.
	t0 = time.Now()
	if err := store.Compact(); err != nil {
		log.Printf("SCALE: compact: %v", err)
		return 1
	}
	st = store.Status()
	log.Printf("scale-compact in %v: %d segments, %d docs reclaimed, %d compactions",
		time.Since(t0).Round(time.Millisecond), len(st.Segments), st.ReclaimedDocs, st.Compactions)
	identical := 0
	for seq := 0; seq < sample; seq++ {
		again, err := sys.Find(workload.Need(uint64(seq)))
		if err != nil {
			log.Printf("SCALE: post-compaction find: %v", err)
			return 1
		}
		if !expertsIdentical(before[seq], again) {
			log.Printf("SCALE GATE: ranking for %q changed across compaction", workload.Need(uint64(seq)))
			return 1
		}
		identical++
	}
	phases = append(phases, scalePhase("scale-compact", uint64(identical), time.Since(t0), nil, map[string]uint64{
		"segments":          uint64(len(st.Segments)),
		"compactions":       st.Compactions,
		"reclaimed_docs":    st.ReclaimedDocs,
		"disk_bytes":        uint64(st.DiskBytes),
		"identical_replays": uint64(identical),
		"peak_heap_bytes":   heap.peak(),
	}))

	writeReport(o, "inprocess", stats, phases)

	return scaleGate(o, stats.Users, coldBuild, st.Seals, st.Compactions, heap.peak())
}

func expertsIdentical(a, b []expertfind.Expert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// scaleGenerate streams the corpus to disk, dropping each chunk's
// texts from memory once written.
func scaleGenerate(o *options, corpus string, heap *heapWatcher) (loadgen.PhaseResult, int) {
	t0 := time.Now()
	w, err := corpusio.CreateStream(corpus)
	if err != nil {
		log.Printf("SCALE: %v", err)
		return loadgen.PhaseResult{}, 1
	}
	cfg := dataset.StreamConfig{
		Config:    dataset.Config{Seed: o.corpusSeed, Scale: o.scale},
		ChunkDocs: o.scaleChunkDocs,
	}
	total := cfg.BulkChunks()
	chunks := 0
	ds, err := dataset.GenerateStream(cfg,
		func(d *dataset.Dataset) error { return w.WriteBase(d) },
		func(d *dataset.Dataset, c *dataset.StreamChunk) error {
			if err := w.WriteChunk(c); err != nil {
				return err
			}
			d.BlankChunkTexts(c)
			chunks++
			if chunks%25 == 0 || chunks == total {
				log.Printf("  generate: chunk %d/%d, %d users, %d resources, %v elapsed",
					chunks, total, d.Graph.NumUsers(), d.Graph.NumResources(),
					time.Since(t0).Round(time.Second))
			}
			return nil
		})
	if err != nil {
		w.Close()
		log.Printf("SCALE: generate: %v", err)
		return loadgen.PhaseResult{}, 1
	}
	if err := w.Close(); err != nil {
		log.Printf("SCALE: generate: %v", err)
		return loadgen.PhaseResult{}, 1
	}
	var corpusBytes uint64
	if fi, err := os.Stat(corpus); err == nil {
		corpusBytes = uint64(fi.Size())
	}
	wall := time.Since(t0)
	log.Printf("scale-generate in %v: %d chunks, %d users, %d resources (%.1f MB on disk)",
		wall.Round(time.Millisecond), chunks, ds.Graph.NumUsers(), ds.Graph.NumResources(),
		float64(corpusBytes)/(1<<20))
	return scalePhase("scale-generate", uint64(ds.Graph.NumResources()), wall, nil, map[string]uint64{
		"users":           uint64(ds.Graph.NumUsers()),
		"resources":       uint64(ds.Graph.NumResources()),
		"chunks":          uint64(chunks),
		"corpus_bytes":    corpusBytes,
		"peak_heap_bytes": heap.peak(),
	}), 0
}

// scalePhase shapes one scale phase as a report entry. requests is
// the phase's unit count (resources generated, docs built, queries
// answered); lat, when present, carries per-request latencies.
func scalePhase(name string, requests uint64, wall time.Duration, lat []float64, counters map[string]uint64) loadgen.PhaseResult {
	res := loadgen.PhaseResult{
		Name:            name,
		Mode:            "closed",
		Concurrency:     1,
		Requests:        requests,
		DurationSeconds: wall.Seconds(),
		Latency:         percentilesOf(lat),
		Index:           counters,
	}
	if wall > 0 {
		res.QPS = float64(requests) / wall.Seconds()
	}
	return res
}

// scaleGate enforces the scale scenario's structural guarantees.
func scaleGate(o *options, users int, coldBuild bool, seals, compactions, peakHeap uint64) int {
	code := 0
	if o.scale >= 100 && users < scaleUserGate {
		log.Printf("SCALE GATE: %d users at scale %.0f, want >= %d", users, o.scale, scaleUserGate)
		code = 1
	}
	if coldBuild && seals < 2 {
		log.Printf("SCALE GATE: cold build sealed %d segments, want >= 2 (lower -segment-flush-docs?)", seals)
		code = 1
	}
	if compactions < 1 {
		log.Printf("SCALE GATE: no compaction ran")
		code = 1
	}
	if limit := uint64(o.scaleMaxHeapMB) << 20; o.scaleMaxHeapMB > 0 && peakHeap > limit {
		log.Printf("SCALE GATE: peak heap %.1f MB exceeds -scale-max-heap-mb %d", float64(peakHeap)/(1<<20), o.scaleMaxHeapMB)
		code = 1
	}
	if code == 0 {
		log.Printf("scale gate passed: %d users, %d seals, %d compactions, peak heap %.1f MB",
			users, seals, compactions, float64(peakHeap)/(1<<20))
	}
	return code
}
