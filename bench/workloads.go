package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/httpapi"
	"expertfind/internal/index"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
)

// firstNeed is the find every set-up ends with, so lazy initialisation
// (the reachability map above all) is billed to setup_s, not to the
// first measured request.
const firstNeed = "Who can recommend a good place to go swimming?"

// replayFinds times needs one by one through the facade, a closed loop
// at concurrency 1: the caller waits for each reply. Results are kept
// and hashed after the metered block.
func replayFinds(sys *expertfind.System, needs []string, opts []expertfind.FindOption, p *pass, off, refEvery int) {
	kept := make([][]expertfind.Expert, len(needs))
	failed := make([]bool, len(needs))
	p.meter.start()
	for i, need := range needs {
		if (off+i)%refEvery == 0 {
			p.slot()
		}
		t0 := time.Now()
		experts, err := sys.Find(need, opts...)
		p.lat[off+i] = time.Since(t0)
		kept[i], failed[i] = experts, err != nil
	}
	p.meter.stop()
	for i := range needs {
		if failed[i] {
			p.hash[off+i] = hashFailed
			continue
		}
		p.hash[off+i] = rankingHash(kept[i])
	}
}

// memFind is the paper's pipeline with nothing around it: the
// in-memory 2-shard index, exhaustive scoring, no cache.
type memFind struct {
	sz    sizing
	seed  int64
	sys   *expertfind.System
	needs []string
}

// memCorpus is the in-memory corpus of mem_find and http_cached, in the
// form the generation probe of the traced run takes.
func memCorpus(sz sizing) dataset.StreamConfig {
	return dataset.StreamConfig{Config: dataset.Config{Seed: corpusSeed, Scale: sz.memScale}}
}

func newMemSystem(sz sizing) *expertfind.System {
	return expertfind.NewSystem(expertfind.Config{Seed: corpusSeed, Scale: sz.memScale, IndexShards: 2})
}

func (w *memFind) setup() error {
	w.sys = newMemSystem(w.sz)
	_, err := w.sys.Find(firstNeed)
	return err
}

func (w *memFind) prepare() error {
	w.needs = permute(newNeedGen(corpusSeed, w.sys.Queries()).stream(w.sz.findN), w.seed)
	return nil
}

func (w *memFind) requests() (int, int) { return len(w.needs), 0 }

func (w *memFind) pass(p *pass) error {
	replayFinds(w.sys, w.needs, nil, p, 0, w.sz.refEvery(len(w.needs)))
	return nil
}

func (w *memFind) close() { w.sys = nil }

// segBase is the disk-backed half shared by seg_topk and seg_churn: a
// stream corpus generated to a file and cold-built, chunk by chunk,
// into a segment store.
type segBase struct {
	sz        sizing
	seed      int64
	keepTexts bool

	dir    string // temp root of the current set-up
	stream string // stream corpus file
	built  string // segment directory of the cold build
	sys    *expertfind.System
	needs  []string
}

func (b *segBase) streamConfig() dataset.StreamConfig {
	return dataset.StreamConfig{
		Config:    dataset.Config{Seed: corpusSeed, Scale: b.sz.streamScale, NumCandidates: b.sz.candidates},
		ChunkDocs: b.sz.chunkDocs,
	}
}

// writeStream generates the stream corpus into path.
func writeStream(cfg dataset.StreamConfig, path string) error {
	w, err := corpusio.CreateStream(path)
	if err != nil {
		return err
	}
	_, err = dataset.GenerateStream(cfg,
		func(d *dataset.Dataset) error { return w.WriteBase(d) },
		func(_ *dataset.Dataset, c *dataset.StreamChunk) error { return w.WriteChunk(c) })
	if err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func (b *segBase) options() expertfind.StreamOptions {
	return expertfind.StreamOptions{FlushDocs: b.sz.chunkDocs, KeepTexts: b.keepTexts}
}

// build is the whole cold path: generate, analyse, flush, seal, open.
func (b *segBase) build(firstOpts ...expertfind.FindOption) error {
	dir, err := os.MkdirTemp("", "expertbench-")
	if err != nil {
		return err
	}
	b.dir, b.stream, b.built = dir, filepath.Join(dir, "corpus.stream.json.gz"), filepath.Join(dir, "segments")
	if err := writeStream(b.streamConfig(), b.stream); err != nil {
		return err
	}
	if b.sys, err = expertfind.NewSystemFromStream(b.stream, b.built, b.options()); err != nil {
		return err
	}
	if segs := len(b.sys.SegmentStore().Status().Segments); segs < 2 {
		return fmt.Errorf("cold build sealed %d segments, the workload needs at least 2", segs)
	}
	_, err = b.sys.Find(firstNeed, firstOpts...)
	return err
}

func (b *segBase) draw(n int) error {
	b.needs = permute(newNeedGen(corpusSeed, b.sys.Queries()).stream(n), b.seed)
	return nil
}

func (b *segBase) close() {
	if b.sys != nil {
		b.sys.SegmentStore().Close()
		b.sys = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// segTopK is the ROADMAP's "make the segment query path cheap" target:
// plan, per-segment list materialisation, block decode, MaxScore walk
// and k-way merge over several sealed segments.
type segTopK struct{ segBase }

func (w *segTopK) findOpts() []expertfind.FindOption {
	return []expertfind.FindOption{expertfind.WithTopK(w.sz.topK)}
}

func (w *segTopK) setup() error   { return w.build(w.findOpts()...) }
func (w *segTopK) prepare() error { return w.draw(w.sz.topkN) }

func (w *segTopK) requests() (int, int) { return len(w.needs), 0 }

func (w *segTopK) pass(p *pass) error {
	replayFinds(w.sys, w.needs, w.findOpts(), p, 0, w.sz.refEvery(len(w.needs)))
	return nil
}

// segChurn is the only write path: every pass is one episode on a
// fresh copy of the built store, in which a remote twin of the corpus
// churns and an ingester applies the deltas between blocks of reads.
type segChurn struct{ segBase }

func (w *segChurn) setup() error   { return w.build() }
func (w *segChurn) prepare() error { return w.draw(w.sz.churnRounds * w.sz.churnFinds) }

func (w *segChurn) requests() (int, int) { return len(w.needs), w.sz.churnRounds }

// episode is one churn pass's live state.
type episode struct {
	dir   string
	api   faults.API // the remote twin, as the ingester sees it
	sys   *expertfind.System
	store *index.Store
	churn *ingest.Churn
	ing   *ingest.Ingester
}

func (e *episode) close() {
	e.store.Close()
	os.RemoveAll(e.dir)
}

// openEpisode copies the built segment directory, opens it as a
// prebuilt store with its own graph, and loads a remote twin of the
// corpus from the same stream file for the churn to edit. Every
// episode therefore starts from byte-identical state.
func (w *segChurn) openEpisode() (*episode, error) {
	dir, err := os.MkdirTemp("", "expertbench-episode-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(w.built, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opts := w.options()
	opts.MaxSegments = w.sz.churnMaxSegs
	sys, err := expertfind.NewSystemFromStream(w.stream, dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &episode{dir: dir, sys: sys, store: sys.SegmentStore()}
	twin, err := corpusio.LoadStreamFile(w.stream, corpusio.StreamLoadOptions{})
	if err != nil {
		e.close()
		return nil, err
	}
	e.api = faults.Wrap(twin.Graph, faults.Config{})
	if e.ing, err = sys.NewIngester(ingest.Config{API: e.api}); err != nil {
		e.close()
		return nil, err
	}
	e.churn = ingest.NewChurn(twin.Graph, ingest.ChurnConfig{
		Seed: w.seed, Adds: w.sz.churnAdds, Updates: w.sz.churnUpdates, Removes: w.sz.churnRemoves,
	})
	return e, nil
}

// A write round has two steps, shared by the untraced pass and the
// traced one (which puts a span around each). The remote churns first,
// untimed: that is the platforms' work.

// ingest is step one: the ingester fetches, diffs and applies. It
// returns the documents applied.
func (e *episode) ingest() (int, error) {
	rep, err := e.ing.RunOnce(context.Background())
	return rep.Adds + rep.Updates + rep.Removes, err
}

// maintain is step two for round r: even rounds seal the memtable, so
// odd rounds read through a live one, and the last round runs
// maintenance, which compacts because the episode's MaxSegments is set
// just below the segment count reached by then.
func (w *segChurn) maintain(e *episode, r int) error {
	if r%2 == 0 {
		if err := e.store.Seal(); err != nil {
			return err
		}
	}
	if r == w.sz.churnRounds-1 {
		return e.store.Maintain()
	}
	return nil
}

// storeState is what must repeat exactly at the end of every episode.
func storeState(st index.StoreStatus) string {
	return fmt.Sprintf("segments=%d tombstones=%d live=%d memtable=%d seals=%d compactions=%d",
		len(st.Segments), st.Tombstones, st.LiveDocs, st.MemtableDocs, st.Seals, st.Compactions)
}

func (w *segChurn) pass(p *pass) error {
	e, err := w.openEpisode()
	if err != nil {
		return err
	}
	defer e.close()
	for r := 0; r < w.sz.churnRounds; r++ {
		e.churn.Round()
		t0 := time.Now()
		docs, err := e.ingest()
		if err == nil {
			err = w.maintain(e, r)
		}
		p.write[r] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		p.writeDocs += docs
		off := r * w.sz.churnFinds
		replayFinds(e.sys, w.needs[off:off+w.sz.churnFinds], nil, p, off, w.sz.refEvery(len(w.needs)))
	}
	p.state = storeState(e.store.Status())
	return nil
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// httpCached is what a /v1/find user sees: the mem_find corpus behind
// the API handler and the result cache, on a loopback listener, one
// keep-alive client. The median request is a cache hit, the 95th
// percentile a miss, and the hot pool is larger than the cache so
// eviction is exercised.
type httpCached struct {
	sz   sizing
	seed int64

	sys     *expertfind.System
	handler *httpapi.Handler
	srv     *http.Server
	served  chan struct{}
	client  *http.Client
	base    string

	needs []string
	want  []uint64 // reference ranking hash per request, computed past the cache
}

func (w *httpCached) setup() error {
	w.sys = newMemSystem(w.sz)
	w.handler = httpapi.NewWithOptions(w.sys, httpapi.Options{Cache: w.newCache()})
	if err := w.listen(w.handler); err != nil {
		return err
	}
	_, _, err := w.get(firstNeed)
	return err
}

// newCache returns the result cache under test. One shard, because the
// cache hashes the generation into the shard choice and enforces its
// capacity per shard: with several shards the same request stream
// evicts differently after every re-attach, and request i would be a
// hit in one pass and a miss in the next.
func (w *httpCached) newCache() *rescache.Cache {
	return rescache.New(rescache.Options{Capacity: w.sz.httpCache, Shards: 1})
}

// listen serves h on a loopback port picked by the kernel.
func (w *httpCached) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: h}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return nil
}

// stopServer shuts the listener down and waits for Serve to return.
func (w *httpCached) stopServer() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Shutdown(context.Background())
	<-w.served
	w.srv = nil
}

func (w *httpCached) close() {
	w.stopServer()
	w.sys = nil
}

func (w *httpCached) findURL(need string) string {
	return w.base + "/v1/find?q=" + url.QueryEscape(need)
}

// get is one /v1/find round trip.
func (w *httpCached) get(need string) (body []byte, cacheStatus string, err error) {
	r, err := http.NewRequest(http.MethodGet, w.findURL(need), nil)
	if err != nil {
		return nil, "", err
	}
	return w.do(r)
}

// do sends r; the reply is complete when the body has been read.
func (w *httpCached) do(r *http.Request) (body []byte, cacheStatus string, err error) {
	resp, err := w.client.Do(r)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("Cache-Status"), nil
}

// prepare draws the request stream and computes, past the cache, the
// ranking every reply must carry: a hit has to equal a cold find.
func (w *httpCached) prepare() error {
	w.needs = permute(newNeedGen(corpusSeed, w.sys.Queries()).skewed(w.sz.httpN, w.sz.httpPool, w.sz.httpZipf, w.sz.httpTail), w.seed)
	w.want = make([]uint64, len(w.needs))
	finder := w.sys.CoreFinder()
	params, err := expertfind.ResolveParams()
	if err != nil {
		return err
	}
	byNeed := make(map[string]uint64)
	for i, need := range w.needs {
		h, ok := byNeed[need]
		if !ok {
			h = rankingHash(namedExperts(finder, finder.FindAnalyzed(finder.Pipeline().AnalyzeNeed(need), params)))
			byNeed[need] = h
		}
		w.want[i] = h
	}
	return nil
}

func (w *httpCached) requests() (int, int) { return len(w.needs), 0 }

// hashReply decodes a /v1/find body into its ranking hash.
func hashReply(body []byte) uint64 {
	var reply struct{ Experts []expertfind.Expert }
	if body == nil || json.Unmarshal(body, &reply) != nil {
		return hashFailed
	}
	return rankingHash(reply.Experts)
}

func (w *httpCached) pass(p *pass) error {
	// A fresh cache generation: every pass starts cold and fills the
	// cache along the same path.
	w.handler.SetSystem(w.sys)
	bodies := make([][]byte, len(w.needs))
	hits := make([]uint64, len(w.needs))
	p.meter.start()
	refEvery := w.sz.refEvery(len(w.needs))
	for i, need := range w.needs {
		if i%refEvery == 0 {
			p.slot()
		}
		t0 := time.Now()
		body, status, err := w.get(need)
		p.lat[i] = time.Since(t0)
		if err == nil {
			bodies[i] = body
		}
		if status == string(core.CacheHit) {
			hits[i] = 1
		}
	}
	p.meter.stop()
	nHits := 0
	for i, body := range bodies {
		p.hash[i] = hashReply(body)
		if p.hash[i] != w.want[i] {
			p.failed++
		}
		nHits += int(hits[i])
	}
	// Which requests hit must repeat too, or request i does different
	// work in different passes and best-of-K compares unlike things.
	p.state = fmt.Sprintf("hits=%d of %d, pattern %s", nHits, len(hits), streamHash(hits, ""))
	return nil
}
