package index

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
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
		"Tombstoned documents physically dropped by a seal or compaction.")
	mSegMaintErrs = telemetry.Default().Counter(
		"expertfind_segment_maintenance_errors_total",
		"Background seal or compaction rounds that failed (their inputs keep serving).")
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

// tmpSuffix names the temporary file writeFile renames into place.
const tmpSuffix = ".tmp"

// StoreOptions configures a segment store. The zero value selects
// sensible defaults.
type StoreOptions struct {
	// FlushDocs is the memtable document count that triggers a seal
	// (default 50000).
	FlushDocs int
	// MaxSegments is the sealed-segment count above which the
	// maintenance policy compacts the smallest half (default 8).
	MaxSegments int
	// Workers is the most parts one find is scored on in parallel, and
	// so the most doc-id ranges a component is cut into (0 selects
	// GOMAXPROCS, 1 scores serially). Rankings are identical for any
	// value.
	Workers int
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
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Doc pairs a resource id with its analyzed form: the unit of bulk
// indexing.
type Doc struct {
	ID DocID
	A  analysis.Analyzed
}

// DocUpdate pairs a document with its replacement: the unit of
// in-place change in a Delta. The store reads ID and New; Old is not
// read, and goes when ROADMAP item 2 or 9 narrows the type to {ID, New}
// (the ledger under bench/ still builds it).
type DocUpdate struct {
	ID       DocID
	Old, New analysis.Analyzed
}

// Delta is one atomic batch of index mutations. A removal is an id: the
// store reads only the IDs of Removes, and their analyzed forms go when
// ROADMAP item 2 or 9 narrows the field to []DocID (the ledger under
// bench/ still builds it).
type Delta struct {
	Adds    []Doc
	Updates []DocUpdate
	Removes []Doc
}

// ShardRoute routes a document to one of n shards. The mix function
// (splitmix64 finalizer) decorrelates the route from sequential id
// patterns; it is a pure function of (id, n), so the layout is stable
// across processes — the scatter-gather serving layer relies on this
// to split one corpus across shard processes and know, without
// coordination, which process owns any document.
func ShardRoute(d DocID, n int) int {
	h := uint64(uint32(d))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// storeSegment is one sealed segment plus its tombstones. A seal
// freezes the memtable as an unwritten segment, which serves from the
// frozen memtable (frozen != nil, path "") until a seal or compaction
// writes it to a file; a written segment serves from its
// SegmentReader. Only a written segment has tombstones: a remove drops
// an unwritten segment's documents from a copy of its frozen index
// instead, since a replace may be reading the original. Tombstones are
// per-segment on purpose: a document updated out of segment A and
// re-added lives in the memtable (and later in segment B), so a
// store-global tombstone set would wrongly suppress the live copy.
type storeSegment struct {
	frozen *Index // non-nil until the segment is written
	r      *SegmentReader
	path   string
	tomb   tombstones
}

// tombstones is all a written segment keeps of the documents deleted
// from it while its lists still hold them: their ids, and its df
// correction — per list, by dictionary ordinal, how many of them it
// holds — counted off the segment's forward section. Its zero value
// (an unwritten segment's, or a merge source's that drops nothing) is
// empty and read-only. Copies share one id set, as they share one df
// map.
type tombstones struct {
	r   *SegmentReader
	ids *idSet
	df  map[uint32]int
}

func newTombstones(r *SegmentReader) tombstones {
	return tombstones{r: r, ids: new(idSet), df: map[uint32]int{}}
}

func (t tombstones) has(id DocID) bool { return t.ids.has(id) }

// add tombstones id, a document of the segment.
func (t tombstones) add(id DocID) {
	t.ids.add(id)
	t.r.eachOrd(id, func(ord uint32) { t.df[ord]++ })
}

// dropped returns how many postings of k's list belong to tombstoned
// documents.
func (t tombstones) dropped(k listKey) int {
	if len(t.df) == 0 {
		return 0
	}
	ref, ok := t.r.lists[k]
	if !ok {
		return 0
	}
	return t.df[ref.ord]
}

// clone returns an independent copy.
func (t tombstones) clone() tombstones {
	return tombstones{r: t.r, ids: t.ids.clone(), df: maps.Clone(t.df)}
}

// idSet is a set of doc ids as a bitset: id d is in it iff bit d&63 of
// words[d>>6] is set. Doc ids are dense and non-negative, and the
// scorer asks once per posting a tombstoned segment admits, so a member
// test is one bounds check and one bit test. A nil set is empty and
// read-only.
type idSet struct {
	words []uint64
	n     int
}

func (s *idSet) has(d DocID) bool {
	if s == nil {
		return false
	}
	// A negative id wraps past every word and is refused with the ids
	// above the largest member.
	w := uint32(d) >> 6
	return int(w) < len(s.words) && s.words[w]&(1<<(uint32(d)&63)) != 0
}

// add puts d in the set. A negative id has no bit: it panics.
func (s *idSet) add(d DocID) {
	if d < 0 {
		panic(fmt.Sprintf("index: tombstone for negative doc id %d", d))
	}
	w, bit := int(d>>6), uint64(1)<<(d&63)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

func (s *idSet) size() int {
	if s == nil {
		return 0
	}
	return s.n
}

func (s *idSet) clone() *idSet {
	if s == nil {
		return nil
	}
	return &idSet{words: slices.Clone(s.words), n: s.n}
}

// each calls fn with every member, ascending.
func (s *idSet) each(fn func(DocID)) {
	if s == nil {
		return
	}
	for i, w := range s.words {
		for w != 0 {
			fn(DocID(i<<6 | bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// lostSince calls fn with every document snap, the segment's snapshot,
// held live that the segment no longer does: removed since, from a copy
// of the frozen index or by a tombstone.
func (g *storeSegment) lostSince(snap mergeSource, fn func(DocID)) {
	if g.frozen == nil {
		g.tomb.ids.each(func(id DocID) {
			if !snap.drop.has(id) {
				fn(id)
			}
		})
		return
	}
	if g.frozen == snap.src {
		return
	}
	for _, id := range snap.src.docIDs() {
		if !g.frozen.Has(id) {
			fn(id)
		}
	}
}

// view returns the component serving the segment right now.
func (g *storeSegment) view() component {
	if g.frozen != nil {
		return g.frozen
	}
	return g.r
}

// list implements listSource over the current view.
func (g *storeSegment) list(k listKey, l *postingList, arena []blockMeta) []blockMeta {
	return g.view().list(k, l, arena)
}

func (g *storeSegment) size() int64 {
	if g.r != nil {
		return g.r.Size()
	}
	return 0
}

// acceptFilter narrows accept to documents not tombstoned in this
// segment.
func (g *storeSegment) acceptFilter(accept func(DocID) bool) func(DocID) bool {
	ids := g.tomb.ids
	switch {
	case ids.size() == 0:
		return accept
	case accept == nil:
		return func(d DocID) bool { return !ids.has(d) }
	}
	return func(d DocID) bool { return !ids.has(d) && accept(d) }
}

// Store is the index container: a mutable in-memory memtable absorbing
// writes, plus immutable sealed segments on disk, scored together under
// collection-global statistics. A store with no directory is the
// memtable alone and never seals. It implements Searcher with rankings
// bit-identical to a monolithic Index over the same live documents, for
// any segment layout and worker bound:
//
//   - planning folds per-segment document frequencies (each minus
//     its segment's tombstone correction) into exact global stats, so
//     the query plan equals the monolith's plan;
//   - each component (memtable, every segment) accumulates scores
//     with the same code and per-document addition chains as the
//     monolith, and live document sets are pairwise disjoint, so the
//     deterministic k-way merge reproduces the monolith's ranking.
//
// Writes (AddBatch/ApplyDelta, both through write) take the store
// write lock; queries hold the read lock for their full duration, so a
// delta, seal or compaction swap is observed either entirely or not at
// all. Maintenance (Seal/Compact/Maintain) changes the segment set
// through one transition, replace, which performs its disk I/O outside
// the store lock against immutable inputs and swaps the result in
// under the write lock.
type Store struct {
	dir  string // "" for a store that lives in memory only
	opts StoreOptions
	// workers bounds the parts and goroutines one query scores on
	// (StoreOptions.Workers).
	workers int

	// maintMu serializes maintenance (seal and compaction I/O) and
	// Close; acquired before mu, never while holding it.
	maintMu sync.Mutex

	mu        sync.RWMutex
	mem       *Index
	segs      []*storeSegment
	seq       int
	seals     uint64
	compacts  uint64
	reclaimed uint64
	lastErr   error

	stop chan struct{}
	bg   sync.WaitGroup

	fs dirFS // makes every file call in dir
}

// NewStore creates or reopens a segment store rooted at dir. Existing
// seg-*.seg files are opened (fully validated) and served; leftover
// temporary files from an interrupted seal, compaction or PutRecord
// are removed. With dir "" the store has no directory: it holds every
// document in its memtable, Seal, Compact and Maintain do nothing, and
// PutRecord refuses.
func NewStore(dir string, o StoreOptions) (*Store, error) { return newStore(dir, o, osFS{}) }

// newStore is NewStore making its file calls through fsys.
func newStore(dir string, o StoreOptions, fsys dirFS) (*Store, error) {
	o = o.withDefaults()
	s := &Store{
		dir:     dir,
		fs:      fsys,
		opts:    o,
		workers: o.Workers,
		mem:     New(),
		stop:    make(chan struct{}),
	}
	if dir == "" {
		return s, nil
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		p := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			fsys.Remove(p)
		case segmentName(name):
			r, err := OpenSegment(p, o.forceStream)
			if err != nil {
				s.closeSegments()
				return nil, err
			}
			s.segs = append(s.segs, &storeSegment{r: r, path: p, tomb: newTombstones(r)})
			var n int
			if _, err := fmt.Sscanf(name, "seg-%d"+segSuffix, &n); err == nil && n >= s.seq {
				s.seq = n + 1
			}
		}
	}
	if err := s.checkDisjoint(); err != nil {
		s.closeSegments()
		return nil, err
	}
	s.updateGauges()
	return s, nil
}

// segmentName reports whether name is a sealed segment's file name.
func segmentName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, segSuffix)
}

// checkDisjoint verifies no document appears in two segments — the
// invariant every scoring merge relies on. Tombstones are not persisted,
// so a sealed document updated and sealed again before a restart trips
// it, as does a merge victim whose unlink failed. The error names both
// files, lower-numbered first, and says when every document of the
// lower-numbered one is also in the other: only then does deleting it
// lose no document.
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
		if all[i] != all[i-1] {
			continue
		}
		var in []*storeSegment
		for _, g := range s.segs {
			if _, ok := slices.BinarySearch(g.r.docs, all[i]); ok {
				in = append(in, g)
			}
		}
		// zero-padded sequence numbers: the lower-numbered file sorts first
		slices.SortFunc(in, func(a, b *storeSegment) int { return strings.Compare(a.path, b.path) })
		lo, hi := filepath.Base(in[0].path), filepath.Base(in[1].path)
		err := fmt.Errorf("index: store %s: doc %d appears in %s and %s", s.dir, all[i], lo, hi)
		for _, d := range in[0].r.docs {
			if _, ok := slices.BinarySearch(in[1].r.docs, d); !ok {
				return err
			}
		}
		return fmt.Errorf("%w; every document of %s is also in %s", err, lo, hi)
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

// Dir returns the store's root directory, "" for a store with none.
func (s *Store) Dir() string { return s.dir }

// Workers returns the most parts one find is scored on in parallel.
func (s *Store) Workers() int { return s.workers }

// Close stops background maintenance, waits for a Seal or Compact in
// flight, and releases every open segment. The memtable is not sealed;
// callers needing durability call Seal first.
func (s *Store) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.bg.Wait()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSegments()
	s.segs = nil
	return nil
}

// liveSegLocked returns the segment holding id live, nil if none does.
func (s *Store) liveSegLocked(id DocID) *storeSegment {
	for _, g := range s.segs {
		if g.view().Has(id) && !g.tomb.has(id) {
			return g
		}
	}
	return nil
}

// AddBatch bulk-indexes docs, sealing once afterwards if the memtable
// crossed FlushDocs. Adding a live id panics, like Index.Add.
func (s *Store) AddBatch(docs []Doc) error {
	if s.write(Delta{Adds: docs}) {
		return s.Seal()
	}
	return nil
}

// ApplyDelta applies removes, updates and adds as one atomic step, so
// a concurrent query ranks against either the pre-delta or the
// post-delta collection. The memtable is never sealed here —
// ApplyDelta stays error-free and maintenance (background or explicit)
// persists the growth.
func (s *Store) ApplyDelta(d Delta) { s.write(d) }

// write is the one write path, under the store write lock. A removed
// or updated document that a written segment holds is tombstoned there;
// one an unwritten segment holds is removed from a copy of its frozen
// index (a replace may be writing the original). The memtable then
// takes one write: its own removed and updated ids, the updates' new
// forms and the adds. It reports whether a seal is due.
func (s *Store) write(d Delta) (sealDue bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var mem []DocID
	frozen := map[*storeSegment][]DocID{}
	remove := func(id DocID) {
		if s.mem.Has(id) {
			mem = append(mem, id)
			return
		}
		switch g := s.liveSegLocked(id); {
		case g == nil:
			panic("index: removing unknown document")
		case g.frozen != nil:
			frozen[g] = append(frozen[g], id)
		default:
			g.tomb.add(id)
		}
	}
	for _, r := range d.Removes {
		remove(r.ID)
	}
	docs := d.Adds
	if len(d.Updates) > 0 {
		docs = make([]Doc, 0, len(d.Updates)+len(d.Adds))
		for _, u := range d.Updates {
			remove(u.ID)
			docs = append(docs, Doc{ID: u.ID, A: u.New})
		}
		docs = append(docs, d.Adds...)
	}
	for g, ids := range frozen {
		f := g.frozen.clone()
		f.Remove(ids...)
		g.frozen = f
	}
	for _, doc := range docs {
		if s.liveSegLocked(doc.ID) != nil {
			panic("index: duplicate document")
		}
	}
	s.mem.write(mem, docs)
	s.updateGauges()
	return s.sealDueLocked()
}

// sealDueLocked reports whether the documents awaiting a file — the
// memtable's and the live ones of segments a failed write left
// unwritten — have reached FlushDocs in a store that has a directory
// to seal to.
func (s *Store) sealDueLocked() bool {
	if s.dir == "" {
		return false
	}
	n := s.mem.NumDocs()
	for _, g := range s.segs {
		if g.frozen != nil {
			n += g.frozen.NumDocs()
		}
	}
	return n >= s.opts.FlushDocs
}

// Seal freezes the memtable into an immutable segment and writes every
// unwritten segment to its own file. Queries keep running throughout:
// an unwritten segment serves from its frozen memtable while its file
// is written, then the disk reader is swapped in. A failed write
// leaves the segment serving from memory, and the next seal or
// compaction writes it.
func (s *Store) Seal() error {
	if s.dir == "" {
		return nil
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.seal()
}

// seal is Seal under maintMu: freeze, under the store lock, makes a
// memtable holding documents an unwritten segment and returns every
// unwritten segment; each is then replaced alone.
func (s *Store) seal() error {
	for _, g := range s.freeze() {
		if err := s.replace([]*storeSegment{g}, &s.seals, mSegSeals); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) freeze() (unwritten []*storeSegment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.NumDocs() > 0 {
		s.segs = append(s.segs, &storeSegment{frozen: s.mem})
		s.mem = New()
		s.updateGauges()
	}
	for _, g := range s.segs {
		if g.frozen != nil {
			unwritten = append(unwritten, g)
		}
	}
	return unwritten
}

// replace is the one transition of the segment set: snapshot,
// writeSegmentFile and swap write victims, minus their tombstones, as
// one new segment and swap it in for them; on failure the victims keep
// serving. Caller holds maintMu, so the victims stay the store's.
func (s *Store) replace(victims []*storeSegment, n *uint64, m *telemetry.Counter) error {
	srcs, path := s.snapshot(victims)
	if srcs == nil {
		return nil
	}
	r, err := s.writeSegmentFile(path, srcs)
	if err != nil {
		return err
	}
	s.swap(victims, srcs, r, n, m)
	return nil
}

// snapshot makes each victim a merge source dropping a copy of its
// tombstones and reserves the new file's path; nil sources mean there
// is nothing to replace (no victims, or one on disk with no tombstones).
func (s *Store) snapshot(victims []*storeSegment) ([]mergeSource, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(victims) == 0 || len(victims) == 1 && victims[0].frozen == nil && victims[0].tomb.ids.size() == 0 {
		return nil, ""
	}
	srcs := make([]mergeSource, len(victims))
	for i, g := range victims {
		srcs[i] = mergeSource{src: g.view(), drop: g.tomb.clone()}
	}
	s.seq++
	return srcs, filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", s.seq-1, segSuffix))
}

// swap puts r in the victims' place and bumps n and m, seals or
// compactions. The snapshot's tombstones are reclaimed; the documents
// victims[i] lost since are live in r, so r tombstones them. Victims
// that were on disk are then unlinked; a failed unlink is kept for Status.
func (s *Store) swap(victims []*storeSegment, srcs []mergeSource, r *SegmentReader, n *uint64, m *telemetry.Counter) {
	merged := &storeSegment{r: r, path: r.Path(), tomb: newTombstones(r)}
	reclaimed := 0
	s.mu.Lock()
	for i, g := range victims {
		g.lostSince(srcs[i], merged.tomb.add)
		reclaimed += srcs[i].drop.ids.size()
	}
	s.segs = append(slices.DeleteFunc(s.segs, func(g *storeSegment) bool { return slices.Contains(victims, g) }), merged)
	*n++
	s.reclaimed += uint64(reclaimed)
	s.updateGauges()
	s.mu.Unlock()

	for _, g := range victims {
		if g.r == nil {
			continue
		}
		g.r.Close()
		if err := s.fs.Remove(g.path); err != nil {
			s.mu.Lock()
			s.lastErr = fmt.Errorf("index: compacted segment left on disk, the next open refuses the directory until it is deleted: %w", err)
			s.mu.Unlock()
		}
	}
	m.Inc()
	mSegReclaimed.Add(float64(reclaimed))
}

// writeSegmentFile writes the merged sources to path and opens the
// file validated. path is a fresh name, so removing it on failure
// restores the pre-state whichever step failed.
func (s *Store) writeSegmentFile(path string, srcs []mergeSource) (*SegmentReader, error) {
	err := s.writeFile(path, func(w io.Writer) (int64, error) { return writeIndex(w, srcs) })
	var r *SegmentReader
	if err == nil {
		r, err = OpenSegment(path, s.opts.forceStream)
	}
	if err != nil {
		s.fs.Remove(path)
		return nil, err
	}
	return r, nil
}

// writeFile is the store's one durable write: write fills a temp file,
// which is synced, closed and renamed over path, and the directory is
// synced so the rename is durable before a caller acts on it (swap's
// unlinks). A failure before the rename removes the temp file and
// leaves path as it was.
func (s *Store) writeFile(path string, write func(io.Writer) (int64, error)) error {
	tmp := path + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(s.dir)
}

// PutRecord durably replaces the record name, a file the store keeps
// beside its segments for its user (experiments' build record), with
// data: a reader finds the old bytes or data, never part of either.
func (s *Store) PutRecord(name string, data []byte) error {
	path, err := s.recordPath(name)
	if err != nil {
		return err
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.writeFile(path, bytes.NewReader(data).WriteTo)
}

// Record returns the bytes of the record name; one never put is
// fs.ErrNotExist.
func (s *Store) Record(name string) ([]byte, error) {
	path, err := s.recordPath(name)
	if err != nil {
		return nil, err
	}
	return s.fs.ReadFile(path)
}

// recordPath refuses a store with no directory, and a name that is not
// a plain file name or that open would serve as a segment or sweep.
func (s *Store) recordPath(name string) (string, error) {
	switch {
	case s.dir == "":
		return "", fmt.Errorf("index: record %q: store has no directory", name)
	case filepath.Base(name) != name || name == "." || name == ".." || segmentName(name) || strings.HasSuffix(name, tmpSuffix):
		return "", fmt.Errorf("index: %q cannot name a record", name)
	}
	return filepath.Join(s.dir, name), nil
}

// Compact merges every segment, unwritten ones included, into one,
// physically dropping all tombstoned postings. Queries and writes keep
// running; only the final swap takes the write lock.
func (s *Store) Compact() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.RLock()
	victims := append([]*storeSegment(nil), s.segs...)
	s.mu.RUnlock()
	return s.replace(victims, &s.compacts, mSegCompactions)
}

// Maintain runs one maintenance round: seal if the documents awaiting
// a file reached FlushDocs, then compact per policy — the smallest half of
// the segments when their count exceeds MaxSegments, or every
// tombstone-carrying segment when tombstones exceed reclaimFraction
// of the live document count.
func (s *Store) Maintain() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	s.mu.RLock()
	due := s.sealDueLocked()
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
	} else if tombs := s.tombsLocked(); tombs > 0 && float64(tombs) > reclaimFraction*float64(s.numDocsLocked()) {
		for _, g := range s.segs {
			if g.tomb.ids.size() > 0 {
				victims = append(victims, g)
			}
		}
	}
	s.mu.RUnlock()
	return s.replace(victims, &s.compacts, mSegCompactions)
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
	mSegTombstones.Set(float64(s.tombsLocked()))
	mSegMemDocs.Set(float64(s.mem.NumDocs()))
	mSegDiskBytes.Set(float64(bytes))
}

// SegmentStatus describes one sealed segment; Path is "" while a
// failed write leaves it unwritten.
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
		Tombstones:    s.tombsLocked(),
		Seals:         s.seals,
		Compactions:   s.compacts,
		ReclaimedDocs: s.reclaimed,
	}
	for _, g := range s.segs {
		st.Segments = append(st.Segments, SegmentStatus{
			Path:       g.path,
			Docs:       g.view().NumDocs(),
			Tombstones: g.tomb.ids.size(),
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
// memtable counts plus each segment's dictionary counts minus that
// segment's tombstones — so planQuery over a store computes the
// byte-identical weights a monolithic index over the live documents
// would.

func (s *Store) numDocsLocked() int {
	n := s.mem.NumDocs()
	for _, g := range s.segs {
		n += g.view().NumDocs() - g.tomb.ids.size()
	}
	return n
}

func (s *Store) tombsLocked() int {
	n := 0
	for _, g := range s.segs {
		n += g.tomb.ids.size()
	}
	return n
}

func (s *Store) freqLocked(k listKey) int {
	df := s.mem.freq(k)
	for _, g := range s.segs {
		df += g.view().freq(k) - g.tomb.dropped(k)
	}
	return df
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
	return s.mem.Has(id) || s.liveSegLocked(id) != nil
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
			if !g.tomb.has(id) && !visit(id) {
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

// ScoreStatsTopK implements Searcher: the parts are the components
// holding planned postings, a heavy one cut into doc-id ranges
// (partsLocked), each segment under its tombstone filter, scored
// on the store's worker pool. Live document sets are pairwise disjoint
// (a document has exactly one non-tombstoned occurrence) and so are
// the ranges of one component, so the merge reproduces a monolithic
// evaluation exactly. A segment's planned lists are walked in place (on
// the mmap source, in the mapping itself) behind skip entries parsed
// into the accumulator's pooled arena, so on the mmap source a warm
// query allocates nothing per planned list.
func (s *Store) ScoreStatsTopK(need analysis.Analyzed, alpha float64, st CollectionStats, k int, accept func(DocID) bool) []ScoredDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st == nil {
		st = storeStats{s}
	}
	plan := planQuery(need, alpha, st)
	return searchParts(plan, s.partsLocked(plan, accept), k, s.workers)
}

// partsLocked returns one query's work items. A component's planned
// mass is the number of postings the plan names in it, read off the
// dictionary counts without touching the disk. A component of mass 0
// is no part. A component whose mass m exceeds an even share of the
// total, total/workers, is cut into ceil(m·workers/total) doc-id ranges
// at the quantiles of its sorted doc ids, so that a store that is one
// big component — the memtable of a store with no directory, or the
// one segment compaction leaves — still fills the pool. Every
// component keeps its ids sorted as it changes, so cutting reads them
// and writes nothing. Caller holds mu.
func (s *Store) partsLocked(plan queryPlan, accept func(DocID) bool) []part {
	var buf [16]int
	mass := append(buf[:0], planMass(s.mem, plan))
	for _, g := range s.segs {
		mass = append(mass, planMass(g.view(), plan))
	}
	total := 0
	for _, m := range mass {
		total += m
	}
	// The cuts of all components together add fewer than workers parts:
	// ceil(m·workers/total)-1 < m·workers/total, summed over m <= total.
	parts := make([]part, 0, len(s.segs)+s.workers)
	for i, m := range mass {
		if m == 0 {
			continue
		}
		var c component = s.mem
		p := part{src: s.mem, span: allDocs, accept: accept}
		if i > 0 {
			g := s.segs[i-1]
			c, p = g.view(), part{src: g, span: allDocs, accept: g.acceptFilter(accept)}
		}
		docs := c.docIDs()
		for j, n := 1, (m*s.workers+total-1)/total; j < n; j++ {
			var below part
			below, p = p.cut(docs[j*len(docs)/n])
			parts = append(parts, below)
		}
		parts = append(parts, p)
	}
	return parts
}

// WriteTo streams the live collection — memtable plus segments, minus
// tombstones — as one canonical v3 index file, byte-identical to
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
