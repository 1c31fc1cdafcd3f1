package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"expertfind"
	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/httpapi"
	"expertfind/internal/index"
	"expertfind/internal/ingest"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// perLayer is the traced run's table: one row per layer measurement,
// named after the package it times or counts. A workload that does not
// exercise a layer reports 0 for it, which is itself the evidence that
// the workloads separate the layers. BENCHMARK.json repeats the list.
var perLayer = []metricDef{
	{"analysis.need_us", "us"},
	{"analysis.doc_us", "us"},
	{"socialgraph.traverse_ms", "ms"},
	{"socialgraph.reachable_resources", "count"},
	{"index.mem.score_us", "us"},
	{"index.mem.postings_per_op", "count"},
	{"index.mem.matches_per_op", "count"},
	{"index.store.topk_us", "us"},
	{"index.store.score_us", "us"},
	{"index.store.postings_per_op", "count"},
	{"index.store.blocks_skipped_per_op", "count"},
	{"index.store.pruned_docs_per_op", "count"},
	{"index.store.segments", "count"},
	{"index.store.allocs_per_op", "mallocs/op"},
	{"index.store.kb_per_op", "KiB/op"},
	{"index.store.open_ms", "ms"},
	{"index.store.addbatch_docs_per_s", "docs/s"},
	{"index.store.seal_ms", "ms"},
	{"index.store.compact_ms", "ms"},
	{"index.store.apply_delta_ms", "ms"},
	{"index.store.disk_mb", "MiB"},
	{"core.rank_us", "us"},
	{"core.find_us", "us"},
	{"rescache.hit_us", "us"},
	{"rescache.miss_overhead_us", "us"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions_per_op", "count"},
	{"httpapi.hit_us", "us"},
	{"httpapi.miss_us", "us"},
	{"httpapi.wire_us", "us"},
	{"httpapi.resp_bytes", "bytes"},
	{"ingest.round_ms", "ms"},
	{"ingest.fetch_ms", "ms"},
	{"ingest.diff_ms", "ms"},
	{"ingest.docs_per_round", "count"},
	{"ingest.docs_per_s", "docs/s"},
	{"dataset.generate_docs_per_s", "docs/s"},
	{"corpusio.load_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// layerMetrics collects the traced run's values by perLayer name.
type layerMetrics map[string]float64

// runTraced sets the workload up once and hands it a tracer. The
// result carries every perLayer metric; attempted and failed count the
// layered calls whose ranking was checked against the facade's.
func runTraced(w workload, cfg runConfig) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("drawing requests: %w", err)
	}
	t := newTracer()
	lm := layerMetrics{}
	tr := &traceRun{t: t, lm: lm, passes: max(1, cfg.sz.tracePasses)}
	if err := w.trace(tr); err != nil {
		return nil, err
	}
	if err := t.write(cfg.out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	logf("%d spans written to %s", len(t.spans), cfg.out)
	res := &result{Attempted: max(1, tr.attempted), Failed: tr.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{lm[d.name], d.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceRun is what a workload's trace method works with; attempted
// and failed count the traced calls whose output was verified.
type traceRun struct {
	t      *tracer
	lm     layerMetrics
	passes int

	attempted, failed int
}

// counter reads a process-wide telemetry counter by name; registration
// is idempotent, so this finds the one the layer itself increments.
func counter(name string) float64 { return telemetry.Default().Counter(name, "").Value() }

// namedExperts is the facade's last step, applied to a layered call's
// output so its ranking hashes like a Find result.
func namedExperts(f *core.Finder, scores []core.ExpertScore) []expertfind.Expert {
	out := make([]expertfind.Expert, len(scores))
	for i, es := range scores {
		out[i] = expertfind.Expert{Name: f.Graph().User(es.User).Name, Score: es.Score, SupportingResources: es.Resources}
	}
	return out
}

// indexProbe says which Searcher entry point a workload's finds reach
// and under which layer name it is reported.
type indexProbe struct {
	span  string // "index.mem.score", "index.store.topk" or "index.store.score"
	topK  int    // > 0: ScoreTopK under the reachability accept filter
	store bool   // the searcher is the segment store: report its counters and allocation
}

// traceFinds is the per-layer decomposition of a find. For each of
// the needs it (1) replays the facade untraced, for the reference
// ranking and the overhead ratio; (2) calls the layers one by one
// under a root span — analyse → Finder.Matches → RankFromMatches;
// (3) calls the index alone and (4) Finder.FindAnalyzed alone, outside
// the root, to split Matches into index and core time. Request ids are
// offset by reqOff so several calls can share one tracer.
func traceFinds(tr *traceRun, sys *expertfind.System, needs []string, opts []expertfind.FindOption, probe indexProbe, reqOff int) error {
	t, lm := tr.t, tr.lm
	finder := sys.CoreFinder()
	pipe, searcher := finder.Pipeline(), finder.Index()
	params, err := expertfind.ResolveParams(opts...)
	if err != nil {
		return err
	}
	alpha := params.Alpha
	if !params.AlphaSet && alpha == 0 {
		alpha = core.DefaultAlpha
	}

	// The cold traversal is what a find pays once after every graph
	// change; everywhere else the finder serves the memoised map.
	var rcm map[socialgraph.ResourceID][]socialgraph.CandidateDistance
	for p := 0; p < tr.passes; p++ {
		t.setPass(p)
		s := t.begin("socialgraph.traverse", 0, reqOff)
		rcm = finder.Graph().ResourceCandidateMap(finder.Candidates(), params.Traversal)
		t.end(s)
	}
	lm["socialgraph.traverse_ms"] = ms(t.best("socialgraph.traverse")[reqOff])
	lm["socialgraph.reachable_resources"] = float64(len(rcm))
	accept := func(d index.DocID) bool { _, ok := rcm[d]; return ok }

	var plain bestOf
	want := make([]uint64, len(needs))
	analysed := make([]analysis.Analyzed, len(needs))
	var storeAllocs, storeKB []float64
	var ops, postings, matches, skipped, pruned float64
	for p := 0; p < tr.passes; p++ {
		// Facade first, layers second, within the same pass, so the
		// overhead ratio compares neighbours in time.
		lat := make([]time.Duration, len(needs))
		for i, need := range needs {
			t0 := time.Now()
			experts, err := sys.Find(need, opts...)
			lat[i] = time.Since(t0)
			if err != nil {
				return err
			}
			want[i] = rankingHash(experts)
		}
		if err := plain.fold(lat); err != nil {
			return err
		}

		t.setPass(p)
		for i, need := range needs {
			req := reqOff + i
			root := t.begin("find", 0, req)
			s := t.begin("analysis.need", root, req)
			a := pipe.AnalyzeNeed(need)
			t.end(s)
			s = t.begin("core.matches", root, req)
			m := finder.Matches(a, params)
			t.end(s)
			s = t.begin("core.rank", root, req)
			ranked := finder.RankFromMatches(m, params)
			t.end(s)
			t.end(root)
			analysed[i] = a
			tr.attempted++
			if rankingHash(namedExperts(finder, ranked)) != want[i] {
				tr.failed++
			}
		}

		c0 := [4]float64{counter("expertfind_index_postings_scored_total"), counter("expertfind_index_matches_total"),
			counter("expertfind_index_blocks_skipped_total"), counter("expertfind_index_pruned_docs_total")}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, a := range analysed {
			s := t.begin(probe.span, 0, reqOff+i)
			if probe.topK > 0 {
				searcher.ScoreTopK(a, alpha, probe.topK, accept)
			} else {
				searcher.Score(a, alpha)
			}
			t.end(s)
		}
		runtime.ReadMemStats(&m1)
		n := float64(len(needs))
		ops += n
		postings += counter("expertfind_index_postings_scored_total") - c0[0]
		matches += counter("expertfind_index_matches_total") - c0[1]
		skipped += counter("expertfind_index_blocks_skipped_total") - c0[2]
		pruned += counter("expertfind_index_pruned_docs_total") - c0[3]
		storeAllocs = append(storeAllocs, float64(m1.Mallocs-m0.Mallocs)/n)
		storeKB = append(storeKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)

		for i, a := range analysed {
			s := t.begin("core.find", 0, reqOff+i)
			finder.FindAnalyzed(a, params)
			t.end(s)
		}
	}

	inRange := func(req int) bool { return req >= reqOff && req < reqOff+len(needs) }
	lm["analysis.need_us"] = us(medianOf(t.best("analysis.need"), inRange))
	lm["core.rank_us"] = us(medianOf(t.best("core.rank"), inRange))
	lm["core.find_us"] = us(medianOf(t.best("core.find"), inRange))
	lm[probe.span+"_us"] = us(medianOf(t.best(probe.span), inRange))
	if probe.store {
		lm["index.store.postings_per_op"] = postings / ops
		lm["index.store.blocks_skipped_per_op"] = skipped / ops
		lm["index.store.pruned_docs_per_op"] = pruned / ops
		lm["index.store.allocs_per_op"] = median(storeAllocs)
		lm["index.store.kb_per_op"] = median(storeKB)
	} else {
		lm["index.mem.postings_per_op"] = postings / ops
		lm["index.mem.matches_per_op"] = matches / ops
	}

	roots := t.best("find")
	traced := make([]time.Duration, 0, len(needs))
	for req, d := range roots {
		if inRange(req) {
			traced = append(traced, d)
		}
	}
	lm["trace.coverage"] = t.coverage("find")
	p50t, p50u := sorted(traced)[len(traced)/2], sorted(plain.best)[len(plain.best)/2]
	lm["trace.overhead_ratio"] = float64(p50t) / float64(p50u)
	logf("layers over %d finds: find %.1f ms = analysis %.1f + matches %.1f + rank %.1f; index alone (%s) %.1f ms = %.0f%% of find",
		len(needs), ms(sumOf(roots)), ms(sumOf(t.best("analysis.need"))), ms(sumOf(t.best("core.matches"))),
		ms(sumOf(t.best("core.rank"))), probe.span, ms(sumOf(t.best(probe.span))),
		100*float64(sumOf(t.best(probe.span)))/float64(sumOf(roots)))
	return nil
}

// traceBuild measures the build-side layers every workload's set-up
// runs: corpus generation and per-resource analysis. It returns the
// analysed sample for the store probes.
func traceBuild(tr *traceRun, cfg dataset.StreamConfig, finder *core.Finder, sample int) []index.Doc {
	t0 := time.Now()
	ds, err := dataset.GenerateStream(cfg, nil, nil)
	if err == nil {
		tr.lm["dataset.generate_docs_per_s"] = float64(ds.Graph.NumResources()) / time.Since(t0).Seconds()
	}

	g, pipe := finder.Graph(), finder.Pipeline()
	docs := make([]index.Doc, 0, sample)
	analysed := 0
	t0 = time.Now()
	for id := socialgraph.ResourceID(0); int(id) < g.NumResources() && analysed < sample; id++ {
		if g.ResourceDeleted(id) {
			continue
		}
		r := g.Resource(id)
		a, ok := pipe.Analyze(r.Text, r.URLs)
		analysed++
		if ok {
			docs = append(docs, index.Doc{ID: id, A: a})
		}
	}
	tr.lm["analysis.doc_us"] = us(time.Since(t0)) / float64(max(1, analysed))
	return docs
}

func (w *memFind) trace(tr *traceRun) error {
	traceBuild(tr, memCorpus(w.sz), w.sys.CoreFinder(), w.sz.docSample)
	return traceFinds(tr, w.sys, w.needs[:min(w.sz.traceN, len(w.needs))], nil, indexProbe{span: "index.mem.score"}, 0)
}

// traceStore measures the store's own operations away from any
// workload: reopening the built directory, and AddBatch / Seal /
// ApplyDelta / Compact on pre-analysed documents in a scratch store.
// Each is repeated and the best kept.
func (b *segBase) traceStore(tr *traceRun, docs []index.Doc) error {
	st := b.sys.SegmentStore().Status()
	tr.lm["index.store.segments"] = float64(len(st.Segments))
	tr.lm["index.store.disk_mb"] = float64(st.DiskBytes) / (1 << 20)

	t0 := time.Now()
	if _, err := corpusio.LoadStreamFile(b.stream, corpusio.StreamLoadOptions{}); err != nil {
		return err
	}
	tr.lm["corpusio.load_ms"] = ms(time.Since(t0))

	if len(docs) < 4 {
		return fmt.Errorf("store probe needs analysed documents, have %d", len(docs))
	}
	half := len(docs) / 2
	// The delta removes a tenth of the sealed first half and re-adds a
	// tenth of it under the analysed form of a neighbour (an update).
	var delta index.Delta
	for i := 0; i < half/10; i++ {
		delta.Removes = append(delta.Removes, docs[i])
		u := docs[half/10+i]
		delta.Updates = append(delta.Updates, index.DocUpdate{ID: u.ID, Old: u.A, New: docs[i].A})
	}
	best := map[string]time.Duration{}
	keep := func(name string, t0 time.Time) {
		if d := time.Since(t0); best[name] == 0 || d < best[name] {
			best[name] = d
		}
	}
	for p := 0; p < tr.passes; p++ {
		dir, err := os.MkdirTemp("", "expertbench-probe-")
		if err != nil {
			return err
		}
		err = func() error {
			defer os.RemoveAll(dir)
			if err := copyDir(b.built, dir); err != nil {
				return err
			}
			t0 := time.Now()
			opened, err := index.NewStore(dir, index.StoreOptions{FlushDocs: b.sz.chunkDocs})
			if err != nil {
				return err
			}
			keep("open", t0)
			opened.Close()

			scratch, err := index.NewStore(filepath.Join(dir, "scratch"), index.StoreOptions{FlushDocs: len(docs) + 1})
			if err != nil {
				return err
			}
			defer scratch.Close()
			t0 = time.Now()
			if err := scratch.AddBatch(docs[:half]); err != nil {
				return err
			}
			keep("addbatch", t0)
			t0 = time.Now()
			if err := scratch.Seal(); err != nil {
				return err
			}
			keep("seal", t0)
			if err := scratch.AddBatch(docs[half:]); err != nil {
				return err
			}
			if err := scratch.Seal(); err != nil {
				return err
			}
			t0 = time.Now()
			scratch.ApplyDelta(delta)
			keep("apply_delta", t0)
			t0 = time.Now()
			if err := scratch.Compact(); err != nil {
				return err
			}
			keep("compact", t0)
			return nil
		}()
		if err != nil {
			return err
		}
	}
	tr.lm["index.store.open_ms"] = ms(best["open"])
	tr.lm["index.store.addbatch_docs_per_s"] = float64(half) / best["addbatch"].Seconds()
	tr.lm["index.store.seal_ms"] = ms(best["seal"])
	tr.lm["index.store.apply_delta_ms"] = ms(best["apply_delta"])
	tr.lm["index.store.compact_ms"] = ms(best["compact"])
	return nil
}

func (w *segTopK) trace(tr *traceRun) error {
	docs := traceBuild(tr, w.streamConfig(), w.sys.CoreFinder(), w.sz.docSample)
	if err := w.traceStore(tr, docs); err != nil {
		return err
	}
	return traceFinds(tr, w.sys, w.needs[:min(w.sz.traceN, len(w.needs))], w.findOpts(),
		indexProbe{span: "index.store.topk", topK: w.sz.topK, store: true}, 0)
}

// trace runs churn episodes with a span around every write step, then
// decomposes the reads of the last episode's final state.
func (w *segChurn) trace(tr *traceRun) error {
	t := tr.t
	docs := traceBuild(tr, w.streamConfig(), w.sys.CoreFinder(), w.sz.docSample)
	if err := w.traceStore(tr, docs); err != nil {
		return err
	}
	perRound := min(w.sz.churnFinds, max(1, w.sz.traceN/w.sz.churnRounds))
	var applied int
	for p := 0; p < tr.passes; p++ {
		t.setPass(p)
		e, err := w.openEpisode()
		if err != nil {
			return err
		}
		err = func() error {
			defer e.close()
			applied = 0
			for r := 0; r < w.sz.churnRounds; r++ {
				e.churn.Round()
				if r == 0 {
					// Fetch and diff alone, on the state RunOnce is about to see.
					g := e.sys.CoreFinder().Graph()
					known := make([]socialgraph.ContainerID, g.NumContainers())
					for i := range known {
						known[i] = socialgraph.ContainerID(i)
					}
					s := t.begin("ingest.fetch", 0, r)
					cat, err := ingest.FetchCatalog(e.api, &resilience.Retryer{Policy: resilience.DefaultRetry}, known)
					t.end(s)
					if err != nil {
						return err
					}
					s = t.begin("ingest.diff", 0, r)
					_, err = ingest.Diff(g, cat)
					t.end(s)
					if err != nil {
						return err
					}
				}
				root := t.begin("ingest.write", 0, r)
				s := t.begin("ingest.round", root, r)
				docs, err := e.ingest()
				t.end(s)
				if err != nil {
					return err
				}
				applied += docs
				s = t.begin("index.store.maintain", root, r)
				err = w.maintain(e, r)
				t.end(s)
				t.end(root)
				if err != nil {
					return err
				}
				// Reads after every round, through the facade, so the
				// episode's state evolves as in the untraced run.
				off := r * w.sz.churnFinds
				for _, need := range w.needs[off : off+perRound] {
					if _, err := e.sys.Find(need); err != nil {
						return err
					}
				}
			}
			if p == tr.passes-1 {
				return traceFinds(tr, e.sys, w.needs[:min(w.sz.traceN, len(w.needs))], nil,
					indexProbe{span: "index.store.score", store: true}, w.sz.churnRounds)
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	rounds := float64(w.sz.churnRounds)
	tr.lm["ingest.round_ms"] = ms(medianOf(t.best("ingest.round"), nil))
	tr.lm["ingest.fetch_ms"] = ms(medianOf(t.best("ingest.fetch"), nil))
	tr.lm["ingest.diff_ms"] = ms(medianOf(t.best("ingest.diff"), nil))
	tr.lm["ingest.docs_per_round"] = float64(applied) / rounds
	tr.lm["ingest.docs_per_s"] = float64(applied) / sumOf(t.best("ingest.write")).Seconds()
	return nil
}

// spanCache is the benchmark's span around the result cache: it stands
// between the finder and the rescache view, timing GetOrCompute and,
// inside it, the compute callback (the cold find a miss pays for).
// Concurrency is 1, so the handler span in flight is the parent.
type spanCache struct {
	view   core.ResultCache
	t      *tracer
	parent *atomic.Int64 // handler span id << 32 | request id
}

func (c spanCache) GetOrCompute(key core.CacheKey, compute func() []core.ExpertScore) ([]core.ExpertScore, core.CacheStatus) {
	cur := c.parent.Load()
	parent, req := int(cur>>32), int(cur&0xffffffff)
	s := c.t.begin("rescache.get", parent, req)
	out, status := c.view.GetOrCompute(key, func() []core.ExpertScore {
		cs := c.t.begin("core.find.cold", s, req)
		defer c.t.end(cs)
		return compute()
	})
	c.t.end(s)
	return out, status
}

// benchReqHeader carries the request id from the benchmark's client to
// its handler wrapper, which parents the server-side spans on it.
const benchReqHeader = "X-Bench-Req"

// trace serves the same handler under a wrapper that records the
// server-side span of every request, with the benchmark's span cache
// installed in place of the handler-managed one, and decomposes the
// round trip: client → wire → httpapi → rescache → core (misses only).
// The in-process layers under a miss are then decomposed by traceFinds
// over the same needs.
func (w *httpCached) trace(tr *traceRun) error {
	t := tr.t
	traceBuild(tr, memCorpus(w.sz), w.sys.CoreFinder(), w.sz.docSample)

	// The traced server: same system and handler type, no
	// handler-managed cache (the benchmark attaches its own, wrapped),
	// spans around ServeHTTP.
	w.stopServer()
	cache := w.newCache()
	h := httpapi.NewWithOptions(w.sys, httpapi.Options{})
	var current atomic.Int64
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		req, _ := strconv.Atoi(r.Header.Get(benchReqHeader))
		s := t.begin("httpapi.handler", 0, req)
		current.Store(int64(s)<<32 | int64(req))
		h.ServeHTTP(rw, r)
		t.end(s)
	})
	if err := w.listen(wrapped); err != nil {
		return err
	}

	// The whole stream, not a prefix: the hit ratio of a cold-started
	// cache only settles once the hot pool has been seen.
	needs := w.needs
	hit := make([]bool, len(needs))
	var bytes, hits, misses, evictions float64
	for p := 0; p < tr.passes; p++ {
		t.setPass(p)
		w.sys.SetResultCache(spanCache{view: cache.Attach(), t: t, parent: &current})
		c0 := [3]float64{counter("expertfind_rescache_hits_total"), counter("expertfind_rescache_misses_total"), counter("expertfind_rescache_evictions_total")}
		for i, need := range needs {
			s := t.begin("http.roundtrip", 0, i)
			body, status, err := w.getTraced(need, i)
			t.end(s)
			if err != nil {
				return err
			}
			hit[i] = status == string(core.CacheHit)
			bytes += float64(len(body))
			tr.attempted++
			if hashReply(body) != w.want[i] {
				tr.failed++
			}
		}
		hits += counter("expertfind_rescache_hits_total") - c0[0]
		misses += counter("expertfind_rescache_misses_total") - c0[1]
		evictions += counter("expertfind_rescache_evictions_total") - c0[2]
	}
	w.sys.SetResultCache(nil)

	isHit := func(req int) bool { return hit[req] }
	isMiss := func(req int) bool { return !hit[req] }
	handler, get, cold, trip := t.best("httpapi.handler"), t.best("rescache.get"), t.best("core.find.cold"), t.best("http.roundtrip")
	wire, overhead := map[int]time.Duration{}, map[int]time.Duration{}
	for req, d := range trip {
		wire[req] = d - handler[req]
	}
	for req, d := range cold {
		overhead[req] = get[req] - d
	}
	ops := float64(len(needs) * tr.passes)
	tr.lm["httpapi.hit_us"] = us(medianOf(handler, isHit))
	tr.lm["httpapi.miss_us"] = us(medianOf(handler, isMiss))
	tr.lm["httpapi.wire_us"] = us(medianOf(wire, nil))
	tr.lm["httpapi.resp_bytes"] = bytes / ops
	tr.lm["rescache.hit_us"] = us(medianOf(get, isHit))
	tr.lm["rescache.miss_overhead_us"] = us(medianOf(overhead, nil))
	tr.lm["rescache.hit_ratio"] = hits / (hits + misses)
	tr.lm["rescache.evictions_per_op"] = evictions / ops
	logf("round trip over %d requests: %.1f ms = handler %.1f (of which cache %.1f, cold finds %.1f) + wire %.1f",
		len(needs), ms(sumOf(trip)), ms(sumOf(handler)), ms(sumOf(get)), ms(sumOf(cold)), ms(sumOf(wire)))

	distinct := make([]string, 0, w.sz.traceN)
	seen := map[string]bool{}
	for _, need := range needs {
		if !seen[need] && len(distinct) < w.sz.traceN {
			seen[need] = true
			distinct = append(distinct, need)
		}
	}
	return traceFinds(tr, w.sys, distinct, nil, indexProbe{span: "index.mem.score"}, len(needs))
}

// getTraced is get with the request id header the handler wrapper reads.
func (w *httpCached) getTraced(need string, req int) ([]byte, string, error) {
	r, err := http.NewRequest(http.MethodGet, w.findURL(need), nil)
	if err != nil {
		return nil, "", err
	}
	r.Header.Set(benchReqHeader, strconv.Itoa(req))
	return w.do(r)
}
