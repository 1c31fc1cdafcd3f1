package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
	"expertfind/internal/telemetry"
)

// Segment-store metrics: lifecycle counters for the memtable → sealed
// → merged pipeline and gauges for the store's current shape.
var (
	mSegSeals = telemetry.Default().Counter(
		"expertfind_segment_seals_total",
		"Memtables sealed into immutable on-disk segments.")
	mSegCompactions = telemetry.Default().Counter(
		"expertfind_segment_compactions_total",
		"Segment merge/compaction rounds completed.")
	mSegReclaimed = telemetry.Default().Counter(
		"expertfind_segment_reclaimed_docs_total",
		"Tombstoned documents physically dropped by compaction.")
	mSegMaintErrs = telemetry.Default().Counter(
		"expertfind_segment_maintenance_errors_total",
		"Background seal or compaction rounds that failed (state rolled back).")
	mSegCount = telemetry.Default().Gauge(
		"expertfind_segment_segments",
		"Sealed segments currently serving queries.")
	mSegTombstones = telemetry.Default().Gauge(
		"expertfind_segment_tombstones",
		"Documents tombstoned in sealed segments, awaiting reclamation.")
	mSegMemDocs = telemetry.Default().Gauge(
		"expertfind_segment_memtable_docs",
		"Documents in the mutable memtable, not yet sealed to disk.")
	mSegDiskBytes = telemetry.Default().Gauge(
		"expertfind_segment_disk_bytes",
		"Total bytes of sealed segment files on disk.")
)

// segSuffix names sealed segment files: seg-<seq>.seg in the store
// directory, sequence numbers monotonically increasing across seals
// and compactions.
const segSuffix = ".seg"

// StoreOptions configures a segment store. The zero value selects
// sensible defaults.
type StoreOptions struct {
	// FlushDocs is the memtable document count that triggers a seal
	// (default 50000).
	FlushDocs int
	// MaxSegments is the sealed-segment count above which the
	// maintenance policy compacts the smallest half (default 8).
	MaxSegments int
	// forceStream disables mmap in favor of positioned reads: the
	// in-package tests' way to reach the non-unix fallback.
	forceStream bool
}

// reclaimFraction is the tombstone share of the live document count
// above which maintenance compacts every segment carrying tombstones.
const reclaimFraction = 0.2

func (o StoreOptions) withDefaults() StoreOptions {
	if o.FlushDocs <= 0 {
		o.FlushDocs = 50000
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	return o
}

// storeSegment is one sealed segment plus its tombstone set. While a
// seal is writing the disk file the segment briefly serves from the
// frozen memtable (frozen != nil); once the file is durable it serves
// from the SegmentReader. Tombstones are per-segment on purpose: a
// document updated out of segment A and re-added lives in the
// memtable (and later in segment B), so a store-global tombstone set
// would wrongly suppress the live copy.
type storeSegment struct {
	frozen  *Index // non-nil only while the seal write is in flight
	r       *SegmentReader
	path    string
	tomb    map[DocID]analysis.Analyzed
	merging bool
}

// view returns the component serving the segment right now.
func (g *storeSegment) view() component {
	if g.frozen != nil {
		return g.frozen
	}
	return g.r
}

// list implements listSource over the current view.
func (g *storeSegment) list(k listKey) *postingList { return g.view().list(k) }

func (g *storeSegment) size() int64 {
	if g.r != nil {
		return g.r.Size()
	}
	return 0
}

// acceptFilter narrows accept to documents not tombstoned in this
// segment.
func (g *storeSegment) acceptFilter(accept func(DocID) bool) func(DocID) bool {
	if len(g.tomb) == 0 {
		return accept
	}
	t := g.tomb
	if accept == nil {
		return func(d DocID) bool {
			_, dead := t[d]
			return !dead
		}
	}
	return func(d DocID) bool {
		_, dead := t[d]
		return !dead && accept(d)
	}
}

// Store is a disk-backed segmented index: a mutable in-memory
// memtable absorbing writes, plus immutable sealed segments on disk,
// scored together under collection-global statistics. It implements
// Searcher with rankings bit-identical to a monolithic Index over the
// same live documents, for any segment layout:
//
//   - planning folds per-segment document frequencies (minus
//     tombstone corrections) into exact global stats, so the query
//     plan equals the monolith's plan;
//   - each component (memtable, every segment) accumulates scores
//     with the same code and per-document addition chains as the
//     monolith, and live document sets are pairwise disjoint, so the
//     deterministic k-way merge reproduces the monolith's ranking.
//
// Writes (Add/AddBatch/ApplyDelta) take the store write lock; queries
// hold the read lock for their full duration, so a delta, seal or
// compaction swap is observed either entirely or not at all.
// Maintenance (Seal/Compact/Maintain) performs its disk I/O outside
// the store lock against immutable inputs and swaps results in under
// the write lock.
type Store struct {
	dir  string
	opts StoreOptions

	// maintMu serializes maintenance (seal and compaction I/O);
	// acquired before mu, never while holding it.
	maintMu sync.Mutex

	mu        sync.RWMutex
	mem       *Index
	segs      []*storeSegment
	tombDF    map[listKey]int
	nTombs    int
	seq       int
	seals     uint64
	compacts  uint64
	reclaimed uint64
	lastErr   error

	stop chan struct{}
	bg   sync.WaitGroup
}

// NewStore creates or reopens a segment store rooted at dir. Existing
// seg-*.seg files are opened (fully validated) and served; leftover
// temporary files from an interrupted seal or compaction are removed.
func NewStore(dir string, o StoreOptions) (*Store, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   o,
		mem:    New(),
		tombDF: make(map[listKey]int),
		stop:   make(chan struct{}),
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, p := range leftovers {
		os.Remove(p)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		r, err := OpenSegment(p, o.forceStream)
		if err != nil {
			s.closeSegments()
			return nil, err
		}
		s.segs = append(s.segs, &storeSegment{r: r, path: p, tomb: map[DocID]analysis.Analyzed{}})
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d"+segSuffix, &n); err == nil && n >= s.seq {
			s.seq = n + 1
		}
	}
	if err := s.checkDisjoint(); err != nil {
		s.closeSegments()
		return nil, err
	}
	s.updateGauges()
	return s, nil
}

// checkDisjoint verifies no document appears in two segments — the
// invariant every scoring merge relies on. (Reopened stores have no
// tombstones, so any overlap is a corrupted directory.)
func (s *Store) checkDisjoint() error {
	total := 0
	for _, g := range s.segs {
		total += g.view().NumDocs()
	}
	all := make([]DocID, 0, total)
	for _, g := range s.segs {
		all = append(all, g.r.docs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return fmt.Errorf("index: store %s: doc %d appears in two segments", s.dir, all[i])
		}
	}
	return nil
}

func (s *Store) closeSegments() {
	for _, g := range s.segs {
		if g.r != nil {
			g.r.Close()
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close stops background maintenance and releases every open segment.
// The memtable is not sealed; callers needing durability call Seal
// first.
func (s *Store) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSegments()
	s.segs = nil
	return nil
}

// trackTomb / untrackTomb maintain the global df corrections that
// stats folding subtracts from the summed per-segment frequencies.
func (s *Store) trackTomb(id DocID, a analysis.Analyzed) {
	s.nTombs++
	eachPosting(id, a, func(k listKey, _ posting) { s.tombDF[k]++ })
}

func (s *Store) untrackTomb(id DocID, a analysis.Analyzed) {
	s.nTombs--
	eachPosting(id, a, func(k listKey, _ posting) {
		if s.tombDF[k]--; s.tombDF[k] == 0 {
			delete(s.tombDF, k)
		}
	})
}

// hasLocked reports whether id is live anywhere in the store.
func (s *Store) hasLocked(id DocID) bool {
	if s.mem.Has(id) {
		return true
	}
	for _, g := range s.segs {
		if g.view().Has(id) {
			if _, dead := g.tomb[id]; !dead {
				return true
			}
		}
	}
	return false
}

// Add indexes an analyzed resource into the memtable, sealing to disk
// when the memtable reaches FlushDocs. Adding a live id panics, like
// Index.Add.
func (s *Store) Add(id DocID, a analysis.Analyzed) error {
	s.mu.Lock()
	if s.hasLocked(id) {
		s.mu.Unlock()
		panic("index: duplicate document")
	}
	s.mem.Add(id, a)
	due := s.mem.NumDocs() >= s.opts.FlushDocs
	mSegMemDocs.Set(float64(s.mem.NumDocs()))
	s.mu.Unlock()
	if due {
		return s.Seal()
	}
	return nil
}

// AddBatch bulk-indexes docs, sealing once afterwards if the memtable
// crossed FlushDocs.
func (s *Store) AddBatch(docs []Doc) error {
	s.mu.Lock()
	for _, d := range docs {
		if s.hasLocked(d.ID) {
			s.mu.Unlock()
			panic("index: duplicate document")
		}
		s.mem.Add(d.ID, d.A)
	}
	due := s.mem.NumDocs() >= s.opts.FlushDocs
	mSegMemDocs.Set(float64(s.mem.NumDocs()))
	s.mu.Unlock()
	if due {
		return s.Seal()
	}
	return nil
}

// ApplyDelta applies removes, updates and adds as one atomic step
// under the store write lock, mirroring Sharded.ApplyDelta: adds land
// in the memtable; a remove of a memtable document excises it
// directly, while a remove of a sealed document tombstones it in the
// one segment holding it live (postings reclaim at the next
// compaction); an update is remove-then-add. The memtable is never
// sealed here — ApplyDelta stays error-free and maintenance
// (background or explicit) persists the growth.
func (s *Store) ApplyDelta(d Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range d.Removes {
		s.removeLocked(r.ID, r.A)
	}
	for _, u := range d.Updates {
		s.removeLocked(u.ID, u.Old)
		s.addLocked(u.ID, u.New)
	}
	for _, a := range d.Adds {
		s.addLocked(a.ID, a.A)
	}
	mSegMemDocs.Set(float64(s.mem.NumDocs()))
	mSegTombstones.Set(float64(s.nTombs))
}

func (s *Store) addLocked(id DocID, a analysis.Analyzed) {
	if s.hasLocked(id) {
		panic("index: duplicate document")
	}
	s.mem.Add(id, a)
}

func (s *Store) removeLocked(id DocID, a analysis.Analyzed) {
	if s.mem.Has(id) {
		s.mem.Remove(id, a)
		return
	}
	for _, g := range s.segs {
		if !g.view().Has(id) {
			continue
		}
		if _, dead := g.tomb[id]; dead {
			continue
		}
		g.tomb[id] = a
		s.trackTomb(id, a)
		return
	}
	panic("index: removing unknown document")
}

// Seal freezes the memtable into an immutable on-disk segment.
// Queries keep running throughout: the frozen memtable serves as a
// transient segment while its file is written, then the disk reader
// is swapped in. A write failure rolls the documents (and any
// tombstones they attracted meanwhile) back into the memtable.
func (s *Store) Seal() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.seal()
}

func (s *Store) seal() error {
	s.mu.Lock()
	if s.mem.NumDocs() == 0 {
		s.mu.Unlock()
		return nil
	}
	frozen := s.mem
	s.mem = New()
	seg := &storeSegment{frozen: frozen, tomb: map[DocID]analysis.Analyzed{}}
	s.segs = append(s.segs, seg)
	seq := s.seq
	s.seq++
	s.mu.Unlock()

	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", seq, segSuffix))
	r, err := s.writeSegmentFile(path, []mergeSource{{src: frozen}})
	s.mu.Lock()
	if err != nil {
		// Roll back: drop the transient segment, resolve its
		// tombstones against the frozen postings, fold the survivors
		// back into the memtable.
		s.dropSegmentLocked(seg)
		for d, a := range seg.tomb {
			frozen.Remove(d, a)
			s.untrackTomb(d, a)
		}
		s.mem.Merge(frozen)
		s.mu.Unlock()
		return err
	}
	seg.frozen = nil
	seg.r = r
	seg.path = path
	s.seals++
	s.updateGauges()
	s.mu.Unlock()
	mSegSeals.Inc()
	return nil
}

func (s *Store) dropSegmentLocked(seg *storeSegment) {
	kept := s.segs[:0]
	for _, g := range s.segs {
		if g != seg {
			kept = append(kept, g)
		}
	}
	s.segs = kept
}

// writeSegmentFile streams the merged sources to a temp file, makes
// it durable, renames it into place and opens it validated.
func (s *Store) writeSegmentFile(path string, srcs []mergeSource) (*SegmentReader, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if _, err := writeIndex(f, srcs); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	r, err := OpenSegment(path, s.opts.forceStream)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return r, nil
}

// Compact merges every sealed segment into one, physically dropping
// all tombstoned postings. Queries and writes keep running; only the
// final swap takes the write lock.
func (s *Store) Compact() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.RLock()
	victims := append([]*storeSegment(nil), s.segs...)
	s.mu.RUnlock()
	return s.compactSet(victims)
}

// compactSet merges victims into one new segment. Tombstones recorded
// before the merge snapshot are reclaimed (their postings are gone
// from the merged file, so their df corrections are retired);
// tombstones that land on a victim while the merge is writing refer
// to documents live in the merged output, so they carry over to the
// new segment. Caller holds maintMu.
func (s *Store) compactSet(victims []*storeSegment) error {
	s.mu.Lock()
	live := make([]*storeSegment, 0, len(victims))
	for _, g := range victims {
		// Only segments still in the store, fully on disk, qualify.
		// (Under maintMu no seal is in flight, so frozen is nil for
		// every present segment; the check keeps the invariant local.)
		if g.frozen == nil && g.r != nil && !g.merging && s.contains(g) {
			live = append(live, g)
		}
	}
	tombs := 0
	for _, g := range live {
		tombs += len(g.tomb)
	}
	if len(live) < 2 && tombs == 0 {
		s.mu.Unlock()
		return nil
	}
	snaps := make([]map[DocID]analysis.Analyzed, len(live))
	srcs := make([]mergeSource, len(live))
	for i, g := range live {
		g.merging = true
		snap := make(map[DocID]analysis.Analyzed, len(g.tomb))
		for d, a := range g.tomb {
			snap[d] = a
		}
		snaps[i] = snap
		srcs[i] = mergeSource{src: g.view(), drop: snap}
	}
	seq := s.seq
	s.seq++
	s.mu.Unlock()

	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", seq, segSuffix))
	r, err := s.writeSegmentFile(path, srcs)
	if err != nil {
		s.mu.Lock()
		for _, g := range live {
			g.merging = false
		}
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	merged := &storeSegment{r: r, path: path, tomb: map[DocID]analysis.Analyzed{}}
	reclaimed := 0
	for i, g := range live {
		for d, a := range g.tomb {
			if _, snapped := snaps[i][d]; !snapped {
				merged.tomb[d] = a
			}
		}
		for d, a := range snaps[i] {
			s.untrackTomb(d, a)
			reclaimed++
		}
		s.dropSegmentLocked(g)
	}
	s.segs = append(s.segs, merged)
	s.compacts++
	s.reclaimed += uint64(reclaimed)
	s.updateGauges()
	s.mu.Unlock()

	for _, g := range live {
		g.r.Close()
		os.Remove(g.path)
	}
	mSegCompactions.Inc()
	mSegReclaimed.Add(float64(reclaimed))
	return nil
}

func (s *Store) contains(seg *storeSegment) bool {
	for _, g := range s.segs {
		if g == seg {
			return true
		}
	}
	return false
}

// Maintain runs one maintenance round: seal the memtable if it
// reached FlushDocs, then compact per policy — the smallest half of
// the segments when their count exceeds MaxSegments, or every
// tombstone-carrying segment when tombstones exceed reclaimFraction
// of the live document count.
func (s *Store) Maintain() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.RLock()
	due := s.mem.NumDocs() >= s.opts.FlushDocs
	s.mu.RUnlock()
	if due {
		if err := s.seal(); err != nil {
			return err
		}
	}

	s.mu.RLock()
	var victims []*storeSegment
	if len(s.segs) > s.opts.MaxSegments {
		bySize := append([]*storeSegment(nil), s.segs...)
		sort.Slice(bySize, func(i, j int) bool { return bySize[i].view().NumDocs() < bySize[j].view().NumDocs() })
		n := (len(bySize) + 1) / 2
		if n < 2 {
			n = 2
		}
		victims = bySize[:n]
	} else if liveDocs := s.numDocsLocked(); s.nTombs > 0 && float64(s.nTombs) > reclaimFraction*float64(liveDocs) {
		for _, g := range s.segs {
			if len(g.tomb) > 0 {
				victims = append(victims, g)
			}
		}
	}
	s.mu.RUnlock()
	if len(victims) == 0 {
		return nil
	}
	return s.compactSet(victims)
}

// StartBackground runs Maintain every interval until Close. Failures
// are counted, remembered for Status, and retried next round.
func (s *Store) StartBackground(interval time.Duration) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if err := s.Maintain(); err != nil {
					mSegMaintErrs.Inc()
					s.mu.Lock()
					s.lastErr = err
					s.mu.Unlock()
				}
			}
		}
	}()
}

// updateGauges refreshes the shape gauges; caller holds mu.
func (s *Store) updateGauges() {
	var bytes int64
	for _, g := range s.segs {
		bytes += g.size()
	}
	mSegCount.Set(float64(len(s.segs)))
	mSegTombstones.Set(float64(s.nTombs))
	mSegMemDocs.Set(float64(s.mem.NumDocs()))
	mSegDiskBytes.Set(float64(bytes))
}

// SegmentStatus describes one sealed segment.
type SegmentStatus struct {
	Path       string `json:"path"`
	Docs       int    `json:"docs"`
	Tombstones int    `json:"tombstones"`
	Bytes      int64  `json:"bytes"`
}

// StoreStatus is a point-in-time snapshot of the store's shape and
// maintenance history.
type StoreStatus struct {
	MemtableDocs  int             `json:"memtable_docs"`
	LiveDocs      int             `json:"live_docs"`
	Tombstones    int             `json:"tombstones"`
	Segments      []SegmentStatus `json:"segments"`
	Seals         uint64          `json:"seals"`
	Compactions   uint64          `json:"compactions"`
	ReclaimedDocs uint64          `json:"reclaimed_docs"`
	DiskBytes     int64           `json:"disk_bytes"`
	LastError     string          `json:"last_error,omitempty"`
}

// Status reports the store's current shape.
func (s *Store) Status() StoreStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStatus{
		MemtableDocs:  s.mem.NumDocs(),
		LiveDocs:      s.numDocsLocked(),
		Tombstones:    s.nTombs,
		Seals:         s.seals,
		Compactions:   s.compacts,
		ReclaimedDocs: s.reclaimed,
	}
	for _, g := range s.segs {
		st.Segments = append(st.Segments, SegmentStatus{
			Path:       g.path,
			Docs:       g.view().NumDocs(),
			Tombstones: len(g.tomb),
			Bytes:      g.size(),
		})
		st.DiskBytes += g.size()
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// Stats folding: global collection statistics are exact integers —
// memtable counts plus per-segment dictionary counts minus the
// tombstone corrections — so planQuery over a store computes the
// byte-identical weights a monolithic index over the live documents
// would.

func (s *Store) numDocsLocked() int {
	n := s.mem.NumDocs()
	for _, g := range s.segs {
		n += g.view().NumDocs()
	}
	return n - s.nTombs
}

func (s *Store) freqLocked(k listKey) int {
	df := s.mem.freq(k)
	for _, g := range s.segs {
		df += g.view().freq(k)
	}
	return df - s.tombDF[k]
}

// storeStats adapts the folded statistics to CollectionStats; only
// valid while the store lock is held.
type storeStats struct{ s *Store }

func (v storeStats) NumDocs() int                 { return v.s.numDocsLocked() }
func (v storeStats) DocFreq(t string) int         { return v.s.freqLocked(termKey(t)) }
func (v storeStats) EntityFreq(e kb.EntityID) int { return v.s.freqLocked(entityKey(e)) }

// NumDocs returns the number of live documents.
func (s *Store) NumDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numDocsLocked()
}

// Has reports whether id is live in the store.
func (s *Store) Has(id DocID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hasLocked(id)
}

// EachDoc calls visit with every live document id, component by
// component, until it returns false.
func (s *Store) EachDoc(visit func(DocID) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, id := range s.mem.docIDs() {
		if !visit(id) {
			return
		}
	}
	for _, g := range s.segs {
		for _, id := range g.view().docIDs() {
			if _, dead := g.tomb[id]; !dead && !visit(id) {
				return
			}
		}
	}
}

// DocFreq returns the number of live documents containing the term.
func (s *Store) DocFreq(t string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.freqLocked(termKey(t))
}

// EntityFreq returns the number of live documents mentioning the
// entity.
func (s *Store) EntityFreq(e kb.EntityID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.freqLocked(entityKey(e))
}

// Score implements Searcher over the live documents.
func (s *Store) Score(need analysis.Analyzed, alpha float64) []ScoredDoc {
	return s.ScoreStatsTopK(need, alpha, nil, 0, nil)
}

// ScoreTopK implements Searcher.
func (s *Store) ScoreTopK(need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	return s.ScoreStatsTopK(need, alpha, nil, k, accept)
}

// ScoreStatsTopK implements Searcher: the memtable and every segment
// are the parts, each segment under its tombstone filter. Live
// document sets are pairwise disjoint (a document has exactly one
// non-tombstoned occurrence), so the merge reproduces a monolithic
// evaluation exactly. Parts are scored in order on the caller's
// goroutine. A segment's planned lists are walked in place (on the mmap
// source, in the mapping itself); what a query builds per list is its
// skip entries, garbage once the part is scored.
func (s *Store) ScoreStatsTopK(need analysis.Analyzed, alpha float64, st CollectionStats, k int, accept func(DocID) bool) []ScoredDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st == nil {
		st = storeStats{s}
	}
	parts := make([]part, 0, len(s.segs)+1)
	parts = append(parts, part{src: s.mem, accept: accept})
	for _, g := range s.segs {
		parts = append(parts, part{src: g, accept: g.acceptFilter(accept)})
	}
	return searchParts(planQuery(need, alpha, st), parts, k, 1)
}

// WriteTo streams the live collection — memtable plus segments, minus
// tombstones — as one canonical v2 index file, byte-identical to
// WriteTo on a monolithic Index holding the same live documents. It
// holds the read lock for the duration, so concurrent writes wait.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	srcs := make([]mergeSource, 0, len(s.segs)+1)
	srcs = append(srcs, mergeSource{src: s.mem})
	for _, g := range s.segs {
		srcs = append(srcs, mergeSource{src: g.view(), drop: g.tomb})
	}
	return writeIndex(w, srcs)
}
