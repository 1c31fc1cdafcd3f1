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
	"expertfind/internal/index"
	"expertfind/internal/loadgen"
)

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
		res, err := scaleGenerate(o, corpus, heap)
		if err != nil {
			log.Printf("SCALE: generate: %v", err)
			return 1
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
	buildName := "scale-open"
	if st.Seals > 0 {
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
	sample := min(o.scaleReq/4, 32) // >= 1: parseFlags refuses fewer than minScaleRequests
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
	compacted := store.Status()
	log.Printf("scale-compact in %v: %d segments, %d docs reclaimed, %d compactions",
		time.Since(t0).Round(time.Millisecond), len(compacted.Segments), compacted.ReclaimedDocs, compacted.Compactions)
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
		"segments":          uint64(len(compacted.Segments)),
		"compactions":       compacted.Compactions,
		"reclaimed_docs":    compacted.ReclaimedDocs,
		"disk_bytes":        uint64(compacted.DiskBytes),
		"identical_replays": uint64(identical),
		"peak_heap_bytes":   heap.peak(),
	}))

	writeReport(o, stats, phases)

	return scaleGate(o, stats.Users, st, compacted, heap.peak())
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
func scaleGenerate(o *options, corpus string, heap *heapWatcher) (loadgen.PhaseResult, error) {
	t0 := time.Now()
	cfg := dataset.StreamConfig{
		Config:    dataset.Config{Seed: o.corpusSeed, Scale: o.scale},
		ChunkDocs: o.scaleChunkDocs,
	}
	total := cfg.BulkChunks()
	ds, err := corpusio.WriteStreamFile(corpus, cfg, func(d *dataset.Dataset, chunks int) {
		if chunks%25 == 0 || chunks == total {
			log.Printf("  generate: chunk %d/%d, %d users, %d resources, %v elapsed",
				chunks, total, d.Graph.NumUsers(), d.Graph.NumResources(),
				time.Since(t0).Round(time.Second))
		}
	})
	if err != nil {
		return loadgen.PhaseResult{}, err
	}
	var corpusBytes uint64
	if fi, err := os.Stat(corpus); err == nil {
		corpusBytes = uint64(fi.Size())
	}
	wall := time.Since(t0)
	log.Printf("scale-generate in %v: %d chunks, %d users, %d resources (%.1f MB on disk)",
		wall.Round(time.Millisecond), total, ds.Graph.NumUsers(), ds.Graph.NumResources(),
		float64(corpusBytes)/(1<<20))
	return scalePhase("scale-generate", uint64(ds.Graph.NumResources()), wall, nil, map[string]uint64{
		"users":           uint64(ds.Graph.NumUsers()),
		"resources":       uint64(ds.Graph.NumResources()),
		"chunks":          uint64(total),
		"corpus_bytes":    corpusBytes,
		"peak_heap_bytes": heap.peak(),
	}), nil
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

// scaleGate enforces the scale run's structural guarantees on the
// store as built (before the compaction) and after it. A build that
// sealed is cold; a reopened store never seals. A store already in one
// segment without tombstones — a reused -scale-dir, or a directory
// `datagen -stream … -segment-dir` compacted — has nothing to merge,
// so there the gate asks only that it is still one segment.
func scaleGate(o *options, users int, built, compacted index.StoreStatus, peakHeap uint64) int {
	code := 0
	if o.scale >= 100 && users < scaleUserGate {
		log.Printf("SCALE GATE: %d users at scale %.0f, want >= %d", users, o.scale, scaleUserGate)
		code = 1
	}
	if built.Seals == 1 { // a cold build (one that sealed) must seal twice
		log.Printf("SCALE GATE: cold build sealed 1 segment, want >= 2 (lower -segment-flush-docs?)")
		code = 1
	}
	if len(built.Segments) > 1 || built.Tombstones > 0 {
		if compacted.Compactions < 1 {
			log.Printf("SCALE GATE: no compaction ran over %d segments and %d tombstones", len(built.Segments), built.Tombstones)
			code = 1
		}
	} else if len(compacted.Segments) != 1 {
		log.Printf("SCALE GATE: %d segments after compaction, want 1", len(compacted.Segments))
		code = 1
	}
	if limit := uint64(o.scaleMaxHeapMB) << 20; o.scaleMaxHeapMB > 0 && peakHeap > limit {
		log.Printf("SCALE GATE: peak heap %.1f MB exceeds -scale-max-heap-mb %d", float64(peakHeap)/(1<<20), o.scaleMaxHeapMB)
		code = 1
	}
	if code == 0 {
		log.Printf("scale gate passed: %d users, %d seals, %d compactions, peak heap %.1f MB",
			users, built.Seals, compacted.Compactions, float64(peakHeap)/(1<<20))
	}
	return code
}
