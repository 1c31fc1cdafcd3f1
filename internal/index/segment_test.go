package index

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// storeOf builds a store whose sealed layout is given by boundaries:
// docs[0:boundaries[0]] is sealed first, then docs up to
// boundaries[1], and so on; the remainder stays in the memtable.
func storeOf(t testing.TB, docs []Doc, boundaries []int, o StoreOptions) *Store {
	t.Helper()
	if o.FlushDocs == 0 {
		o.FlushDocs = 1 << 30 // manual seals only
	}
	s, err := NewStore(t.TempDir(), o)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	prev := 0
	for _, b := range boundaries {
		if err := s.AddBatch(docs[prev:b]); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
		if err := s.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		prev = b
	}
	if err := s.AddBatch(docs[prev:]); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return s
}

// segToIndex rebuilds an in-memory Index from a sealed segment via
// its merge source, exercising every list load.
func segToIndex(t *testing.T, r *SegmentReader) *Index {
	t.Helper()
	src := mergeSource{src: r}
	ix := New()
	perDoc := map[DocID]analysis.Analyzed{}
	for _, d := range src.liveDocs() {
		perDoc[d] = analysis.Analyzed{Terms: map[string]int{}, Entities: map[kb.EntityID]analysis.EntityStats{}}
	}
	for _, k := range r.keys() {
		for _, p := range src.postings(k) {
			if k.kind == termKind {
				perDoc[p.doc].Terms[k.term] = int(p.freq)
			} else {
				perDoc[p.doc].Entities[k.ent] = analysis.EntityStats{Freq: int(p.freq), DScore: p.dScore}
			}
		}
	}
	for d, a := range perDoc {
		ix.Add(Doc{ID: d, A: a})
	}
	return ix
}

// A sealed segment file round-trips: every posting read back from
// disk (mmap and streamed) matches the index it was sealed from.
func TestSegmentRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		docs := randomDocs(seed, 300, 0)
		mono := flatFromDocs(docs)
		path := filepath.Join(t.TempDir(), "seg-000000.seg")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mono.WriteTo(f); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		f.Close()
		for _, stream := range []bool{false, true} {
			r, err := OpenSegment(path, stream)
			if err != nil {
				t.Fatalf("OpenSegment(stream=%v): %v", stream, err)
			}
			if r.NumDocs() != mono.NumDocs() {
				t.Fatalf("NumDocs %d, want %d", r.NumDocs(), mono.NumDocs())
			}
			assertIndexesEqual(t, mono, segToIndex(t, r))
			r.Close()
		}
	}
}

// Monolith WriteTo bytes, a sealed segment re-written through
// writeIndex, and Store.WriteTo over any layout are all identical:
// the canonical serialization does not depend on how documents were
// partitioned.
func TestStoreWriteToMatchesMonolith(t *testing.T) {
	docs := randomDocs(3, 400, 0)
	mono := flatFromDocs(docs)
	var want bytes.Buffer
	if _, err := mono.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for _, boundaries := range [][]int{nil, {400}, {100, 250}, {50, 100, 150, 399}} {
		s := storeOf(t, docs, boundaries, StoreOptions{})
		var got bytes.Buffer
		if _, err := s.WriteTo(&got); err != nil {
			t.Fatalf("Store.WriteTo(%v): %v", boundaries, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("layout %v: WriteTo bytes differ from monolith (%d vs %d bytes)",
				boundaries, got.Len(), want.Len())
		}
	}
}

// The differential grid: every (seed, layout, tombstones, streaming
// mode, worker bound, α, k) combination must rank bit-identically to
// the monolithic index over the live documents, and a store with no
// directory to the monolith over all of them. The same stores scored with their
// segments cut at forced doc ids (forcedCuts) must too: where the
// range walk starts, stops and clips is unobservable.
func TestStoreScoringBitIdentical(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		docs := randomDocs(seed, 500, 0)
		var removes, live []Doc
		for i, d := range docs {
			if i%11 == 5 {
				removes = append(removes, d)
			} else {
				live = append(live, d)
			}
		}
		mono, monoLive := flatFromDocs(docs), flatFromDocs(live)
		inMem := memStore(docs, 3)
		for _, layout := range [][]int{nil, {500}, {170, 340}, {40, 90, 300, 460}} {
			for _, tombs := range []bool{false, true} {
				for _, stream := range []bool{false, true} {
					s := storeOf(t, docs, layout, StoreOptions{forceStream: stream})
					ref := mono
					if tombs {
						s.ApplyDelta(Delta{Removes: removes})
						ref = monoLive
					}
					if s.NumDocs() != ref.NumDocs() {
						t.Fatalf("NumDocs %d, want %d", s.NumDocs(), ref.NumDocs())
					}
					cutSets := forcedCuts(s)
					r := rand.New(rand.NewSource(seed * 31))
					for q := 0; q < 12; q++ {
						need := randomNeed(r)
						for _, alpha := range []float64{0, 0.6, 1} {
							want := ref.Score(need, alpha)
							label := fmt.Sprintf("seed=%d layout=%v tombs=%v stream=%v q=%d α=%g", seed, layout, tombs, stream, q, alpha)
							if !tombs {
								assertScoredBitIdentical(t, label+" no dir", inMem.Score(need, alpha), want)
							}
							for _, workers := range []int{1, 2, 8} {
								s.workers = workers
								wl := fmt.Sprintf("%s workers=%d", label, workers)
								assertScoredBitIdentical(t, wl, s.Score(need, alpha), want)
								for _, k := range []int{1, 3, 25} {
									assertScoredBitIdentical(t, fmt.Sprintf("%s k=%d", wl, k),
										s.ScoreTopK(need, alpha, k, nil), truncated(want, k))
								}
							}
							s.workers = 2
							for c, cuts := range cutSets {
								for _, k := range []int{0, 1, 25} {
									assertScoredBitIdentical(t, fmt.Sprintf("%s cut set %d %v k=%d", label, c, cuts, k),
										scoreCut(s, need, alpha, k, cuts), truncated(want, k))
								}
							}
						}
					}
				}
			}
		}
	}
}

// truncated returns the first k entries of a ranking (all for k <= 0).
func truncated(ranked []ScoredDoc, k int) []ScoredDoc {
	if k > 0 && len(ranked) > k {
		return ranked[:k]
	}
	return ranked
}

// forcedCuts returns cut sets for every sealed segment of s, one list
// of ascending cut ids per segment and set: an id below all of its
// documents, one between two of them, one above them all; the first
// block edge of its longest list and that block's last document, so
// that the range walk stops exactly at a block and inside one; a
// repeated cut, which leaves a range empty; and six quantile cuts,
// seven ranges.
func forcedCuts(s *Store) [][][]DocID {
	sets := make([][][]DocID, 7)
	for _, g := range s.segs {
		docs := g.r.docs
		gap := docs[0] - 1
		for i := 1; i < len(docs); i++ {
			if docs[i] > docs[i-1]+1 {
				gap = docs[i-1] + 1
				break
			}
		}
		var longest postingList
		for _, k := range g.r.keys() {
			var l postingList
			if g.r.list(k, &l, nil); len(l.blocks) > len(longest.blocks) {
				longest = l
			}
		}
		edge := longest.blocks[0].maxDoc
		mid := docs[len(docs)/2]
		var seven []DocID
		for j := 1; j < 7; j++ {
			seven = append(seven, docs[j*len(docs)/7])
		}
		for i, set := range [][]DocID{
			{docs[0] - 1, gap, docs[len(docs)-1] + 1},
			{edge + 1},
			{edge},
			{mid, mid},
			{docs[0], mid},
			seven,
			{gap},
		} {
			sets[i] = append(sets[i], set)
		}
	}
	return sets
}

// scoreCut scores s with its i-th sealed segment cut at cuts[i] and the
// memtable whole, on the store's worker bound.
func scoreCut(s *Store, need analysis.Analyzed, alpha float64, k int, cuts [][]DocID) []ScoredDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts := []part{{src: s.mem, span: allDocs}}
	for i, g := range s.segs {
		p := part{src: g, span: allDocs, accept: g.acceptFilter(nil)}
		for _, at := range cuts[i] {
			var below part
			below, p = p.cut(at)
			parts = append(parts, below)
		}
		parts = append(parts, p)
	}
	return searchParts(planQuery(need, alpha, storeStats{s}), parts, k, s.workers)
}

// A segment read that fails inside a pooled worker — here a file
// truncated after open, read through positioned reads — panics with
// the reader's message on the caller's goroutine. The truncated segment
// is the heavy one, cut into two ranges, so the query runs on the pool.
// Once the panic is out, the store's read lock is free and no
// accumulator a panic abandoned is back in the pool.
func TestStoreWorkerPanicReachesCaller(t *testing.T) {
	docs := randomDocs(37, 400, 0)
	s := storeOf(t, docs, []int{300, 400}, StoreOptions{forceStream: true})
	s.workers = 2
	need := analysis.Analyzed{Terms: map[string]int{"swim": 1, "code": 1, "atom": 1}}
	heavy := s.segs[0]
	s.mu.RLock()
	parts := s.partsLocked(planQuery(need, 0.6, storeStats{s}), nil)
	s.mu.RUnlock()
	if len(parts) < 2 || parts[0].src != heavy || parts[1].src != heavy {
		t.Fatalf("the heavy segment is not the first two parts: %+v", parts)
	}
	if err := os.Truncate(heavy.path, 16); err != nil {
		t.Fatal(err)
	}
	drainAccFree(t)

	func() {
		defer func() {
			msg, _ := recover().(string)
			if want := "index: segment " + heavy.path + ": read "; !strings.HasPrefix(msg, want) {
				t.Fatalf("recovered %q, want the read failure %q…", msg, want)
			}
		}()
		s.ScoreTopK(need, 0.6, 10, nil)
		t.Fatal("ScoreTopK over a truncated segment returned")
	}()

	sealed := make(chan error, 1)
	go func() { sealed <- s.Seal() }()
	select {
	case err := <-sealed:
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Seal blocked: the panicking query kept the store's read lock")
	}
	drainAccFree(t)
}

// drainAccFree empties the accumulator free list, failing on any entry
// that still holds evaluation state.
func drainAccFree(t *testing.T) {
	t.Helper()
	for {
		select {
		case a := <-accFree:
			if a.k != 0 || len(a.lists) != 0 || len(a.order) != 0 || len(a.hits) != 0 || len(a.arena) != 0 {
				t.Fatalf("pooled accumulator holds an evaluation: k=%d lists=%d order=%d hits=%d arena=%d",
					a.k, len(a.lists), len(a.order), len(a.hits), len(a.arena))
			}
			for _, c := range a.lists[:cap(a.lists)] {
				if !reflect.DeepEqual(c, cursor{}) {
					t.Fatalf("pooled cursor holds an evaluation: %+v", c)
				}
			}
		default:
			return
		}
	}
}

// Deltas applied to a store — including removes and updates that
// tombstone documents inside sealed segments — must leave it
// bit-identical in statistics and ranking to a monolith rebuilt with
// the same mutations.
func TestStoreDeltaVsRebuild(t *testing.T) {
	docs := randomDocs(5, 400, 0)
	mono := flatFromDocs(docs)
	s := storeOf(t, docs, []int{150, 300}, StoreOptions{})

	r := rand.New(rand.NewSource(99))
	live := append([]Doc(nil), docs...)
	next := 5000
	for round := 0; round < 6; round++ {
		var d Delta
		// Remove a few random live docs (some sealed, some memtable).
		for i := 0; i < 5; i++ {
			j := r.Intn(len(live))
			d.Removes = append(d.Removes, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Update a few in place.
		for i := 0; i < 4; i++ {
			j := r.Intn(len(live))
			newA := randomDocs(int64(next), 1, 0)[0].A
			d.Updates = append(d.Updates, DocUpdate{ID: live[j].ID, Old: live[j].A, New: newA})
			live[j].A = newA
			next++
		}
		// Add fresh docs.
		for i := 0; i < 6; i++ {
			nd := Doc{ID: DocID(next * 10), A: randomDocs(int64(next), 1, 0)[0].A}
			d.Adds = append(d.Adds, nd)
			live = append(live, nd)
			next++
		}
		s.ApplyDelta(d)
		checkTombDF(t, s, fmt.Sprintf("round %d", round))
		checkForward(t, s, live, fmt.Sprintf("round %d", round))
		applyDelta(mono, d)

		if s.NumDocs() != mono.NumDocs() {
			t.Fatalf("round %d: NumDocs %d, want %d", round, s.NumDocs(), mono.NumDocs())
		}
		for _, term := range []string{"swim", "php", "atom", "missing"} {
			if s.DocFreq(term) != mono.DocFreq(term) {
				t.Fatalf("round %d: DocFreq(%q) %d, want %d", round, term, s.DocFreq(term), mono.DocFreq(term))
			}
		}
		for e := kb.EntityID(0); e < 50; e += 7 {
			if s.EntityFreq(e) != mono.EntityFreq(e) {
				t.Fatalf("round %d: EntityFreq(%d) %d, want %d", round, e, s.EntityFreq(e), mono.EntityFreq(e))
			}
		}
		for q := 0; q < 6; q++ {
			need := randomNeed(r)
			assertScoredBitIdentical(t, fmt.Sprintf("round %d q %d", round, q),
				s.Score(need, 0.6), mono.Score(need, 0.6))
			assertScoredBitIdentical(t, fmt.Sprintf("round %d q %d topk", round, q),
				s.ScoreTopK(need, 0.6, 10, nil), mono.ScoreTopK(need, 0.6, 10, nil))
		}
		// Removed docs are gone; live docs are present.
		if s.Has(d.Removes[0].ID) {
			t.Fatalf("round %d: removed doc %d still live", round, d.Removes[0].ID)
		}
		if !s.Has(d.Adds[0].ID) {
			t.Fatalf("round %d: added doc %d not live", round, d.Adds[0].ID)
		}
	}

	// Sealing the mutated memtable and compacting everything reclaims
	// all tombstones without changing a single ranking bit.
	before := s.Score(randomNeed(rand.New(rand.NewSource(1))), 0.6)
	if err := s.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	checkTombDF(t, s, "seal")
	checkForward(t, s, live, "seal")
	tombs := s.Status().Tombstones
	if tombs == 0 {
		t.Fatal("expected tombstones before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkTombDF(t, s, "compaction")
	checkForward(t, s, live, "compaction")
	st := s.Status()
	if st.Tombstones != 0 || st.ReclaimedDocs != uint64(tombs) || len(st.Segments) != 1 {
		t.Fatalf("post-compact status: %+v (want 0 tombstones, %d reclaimed, 1 segment)", st, tombs)
	}
	after := s.Score(randomNeed(rand.New(rand.NewSource(1))), 0.6)
	assertScoredBitIdentical(t, "compaction", after, before)
	assertScoredBitIdentical(t, "compaction vs monolith", after, mono.Score(randomNeed(rand.New(rand.NewSource(1))), 0.6))

	// And the compacted store still serializes to the monolith bytes.
	var got, want bytes.Buffer
	if _, err := s.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := mono.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("compacted store bytes differ from rebuilt monolith")
	}
}

// Auto-seal at FlushDocs and the Maintain segment-count policy keep
// the store within its configured shape without changing results.
func TestStoreAutoSealAndMaintain(t *testing.T) {
	docs := randomDocs(8, 600, 0)
	mono := flatFromDocs(docs)
	s, err := NewStore(t.TempDir(), StoreOptions{FlushDocs: 50, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, d := range docs {
		if err := s.AddBatch([]Doc{d}); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	if st := s.Status(); st.Seals < 10 {
		t.Fatalf("expected ≥10 auto-seals at FlushDocs=50, got %d", st.Seals)
	}
	for i := 0; i < 8; i++ {
		if err := s.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
	}
	st := s.Status()
	if len(st.Segments) > 4+1 {
		t.Fatalf("maintain left %d segments, want ≤5", len(st.Segments))
	}
	if st.Compactions == 0 {
		t.Fatal("expected at least one compaction")
	}
	need := randomNeed(rand.New(rand.NewSource(4)))
	assertScoredBitIdentical(t, "maintained", s.Score(need, 0.6), mono.Score(need, 0.6))
}

// A store reopened from its directory serves the sealed documents it
// persisted; a duplicated segment file is rejected at open.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	docs := randomDocs(12, 200, 0)
	s, err := NewStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Leftover temp files from a simulated crash must be swept.
	os.WriteFile(filepath.Join(dir, "seg-000009.seg.tmp"), []byte("junk"), 0o644)
	s.Close()

	s2, err := NewStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.NumDocs() != len(docs) {
		t.Fatalf("reopened NumDocs %d, want %d", s2.NumDocs(), len(docs))
	}
	need := randomNeed(rand.New(rand.NewSource(2)))
	assertScoredBitIdentical(t, "reopen", s2.Score(need, 0.6), flatFromDocs(docs).Score(need, 0.6))
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftovers) != 0 {
		t.Fatalf("leftover temp files survived reopen: %v", leftovers)
	}
	s2.Close()

	// Duplicate a segment file: the same doc now appears twice.
	seg, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	raw, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "seg-000777.seg"), raw, 0o644)
	first := filepath.Base(seg[0])
	want := fmt.Sprintf("and seg-000777.seg; every document of %s is also in seg-000777.seg", first)
	if _, err := NewStore(dir, StoreOptions{}); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("NewStore over a copied segment: %v, want an error ending %q", err, want)
	}
}

// A document updated and sealed again before a restart is in two
// segments, and the older one holds documents the newer lacks: the
// refusal names both files and does not call the older one covered,
// since deleting it would lose them.
func TestStoreOverlapNotCovered(t *testing.T) {
	dir := t.TempDir()
	docs := randomDocs(13, 50, 0)
	s, err := NewStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.ApplyDelta(Delta{Updates: []DocUpdate{{ID: docs[7].ID, Old: docs[7].A, New: docs[8].A}}})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*"+segSuffix))
	if len(segs) != 2 {
		t.Fatalf("%d segment files, want 2", len(segs))
	}
	want := fmt.Sprintf("doc %d appears in %s and %s", docs[7].ID, filepath.Base(segs[0]), filepath.Base(segs[1]))
	if _, err := NewStore(dir, StoreOptions{}); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("NewStore after a second seal of an update: %v, want an error ending %q", err, want)
	}
}

// A failed seal leaves the frozen memtable serving as an unwritten
// segment: rankings do not move, a remove and an update tombstone it
// like any segment, and the retry writes it without the tombstoned
// documents — a Seal as the next seal, or a Compact that takes it as a
// victim beside a segment already on disk.
func TestStoreSealFailureKeepsServing(t *testing.T) {
	for _, c := range []struct {
		retry                    string
		sealed                   []int // the layout before the failed seal
		seals, compactions, segs int   // after the retry
		memtable                 int
	}{
		{retry: "Seal", seals: 2, segs: 2},
		{retry: "Compact", sealed: []int{40}, seals: 1, compactions: 1, segs: 1, memtable: 1},
	} {
		t.Run(c.retry, func(t *testing.T) {
			docs := randomDocs(21, 120, 0)
			s := storeOf(t, docs, c.sealed, StoreOptions{})
			first := 0 // the unwritten segment's first document
			if len(c.sealed) > 0 {
				first = c.sealed[len(c.sealed)-1]
			}
			mono := flatFromDocs(docs)
			need := randomNeed(rand.New(rand.NewSource(6)))
			want := mono.Score(need, 0.6)
			// dueAt reports that a seal is due at exactly n documents
			// awaiting a file: due at FlushDocs n, not at n+1.
			dueAt := func(n int) bool {
				s.opts.FlushDocs = n
				due := s.sealDueLocked()
				s.opts.FlushDocs = n + 1
				return due && !s.sealDueLocked()
			}

			// A directory where the seal's temp file goes fails the write.
			block := filepath.Join(s.Dir(), fmt.Sprintf("seg-%06d%s.tmp", s.seq, segSuffix))
			if err := os.Mkdir(block, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := s.Seal(); err == nil {
				t.Fatal("Seal wrote its segment over a directory")
			}
			st := s.Status()
			unwritten := st.Segments[len(st.Segments)-1]
			if st.MemtableDocs != 0 || len(st.Segments) != len(c.sealed)+1 || unwritten.Path != "" ||
				unwritten.Docs != len(docs)-first || st.Seals != uint64(len(c.sealed)) {
				t.Fatalf("after the failed seal: %+v", st)
			}
			assertScoredBitIdentical(t, "after failed seal", s.Score(need, 0.6), want)
			if !dueAt(len(docs) - first) {
				t.Fatal("the unwritten documents do not count towards the next seal")
			}

			gone, changed := docs[first], docs[first+1]
			newA := randomDocs(99, 1, 0)[0].A
			s.ApplyDelta(Delta{Removes: []Doc{gone}, Updates: []DocUpdate{{ID: changed.ID, Old: changed.A, New: newA}}})
			mono.Remove(gone.ID)
			applyDelta(mono, Delta{Updates: []DocUpdate{{ID: changed.ID, New: newA}}})
			// An unwritten segment has no forward section to tombstone by:
			// the delta drops both documents from a copy of its frozen index.
			if st := s.Status(); st.Tombstones != 0 || st.Segments[len(st.Segments)-1].Docs != len(docs)-first-2 || st.MemtableDocs != 1 {
				t.Fatalf("the delta did not land on the unwritten segment: %+v", st)
			}
			checkTombDF(t, s, "delta on the unwritten segment")
			assertScoredBitIdentical(t, "delta on the unwritten segment", s.Score(need, 0.6), mono.Score(need, 0.6))
			if !dueAt(len(docs) - first - 1) {
				t.Fatal("the removed unwritten documents still count towards the next seal")
			}

			if err := os.Remove(block); err != nil {
				t.Fatal(err)
			}
			retry := map[string]func() error{"Seal": s.Seal, "Compact": s.Compact}[c.retry]
			if err := retry(); err != nil {
				t.Fatalf("retry %s: %v", c.retry, err)
			}
			st = s.Status()
			if st.Seals != uint64(c.seals) || st.Compactions != uint64(c.compactions) || len(st.Segments) != c.segs ||
				st.MemtableDocs != c.memtable || st.ReclaimedDocs != 0 || st.Tombstones != 0 {
				t.Fatalf("after retry %s: %+v", c.retry, st)
			}
			// The files on disk are exactly the segments serving: the
			// on-disk victim of a compaction is unlinked.
			var paths []string
			for _, g := range st.Segments {
				paths = append(paths, g.Path)
			}
			files, _ := filepath.Glob(filepath.Join(s.Dir(), "*"))
			slices.Sort(paths)
			if !slices.Equal(files, paths) {
				t.Fatalf("directory holds %v, segments serve %v", files, paths)
			}
			assertScoredBitIdentical(t, "after retry", s.Score(need, 0.6), mono.Score(need, 0.6))
			var got, wantBytes bytes.Buffer
			if _, err := s.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if _, err := mono.WriteTo(&wantBytes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantBytes.Bytes()) {
				t.Fatal("store bytes after the retry differ from the monolith's")
			}
		})
	}
}

// checkTombDF is the df recount oracle: it decodes every list of every
// segment and counts the postings of the segment's tombstoned
// documents, which must be the df correction the segment counted off
// its forward section. It is the pass that would rebuild the
// correction from tombstone ids without one.
func checkTombDF(t testing.TB, s *Store, step string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, g := range s.segs {
		if g.frozen != nil {
			if g.tomb.ids.size() != 0 || len(g.tomb.df) != 0 {
				t.Fatalf("%s: unwritten segment %d has tombstones", step, i)
			}
			continue
		}
		recount := map[uint32]int{}
		for k, ref := range g.r.lists {
			var l postingList
			g.r.list(k, &l, nil)
			for _, p := range l.decodeAll() {
				if g.tomb.has(p.doc) {
					recount[ref.ord]++
				}
			}
		}
		if !maps.Equal(recount, g.tomb.df) {
			t.Fatalf("%s: segment %d keeps df correction %v for its %d tombstones, its lists count %v",
				step, i, g.tomb.df, g.tomb.ids.size(), recount)
		}
	}
}

// docKeys returns, per document of c, the keys c lists it under,
// ascending: read off the forward section of a written segment,
// inverted out of the lists of an index.
func docKeys(c component) map[DocID][]listKey {
	out := map[DocID][]listKey{}
	switch c := c.(type) {
	case *SegmentReader:
		byOrd := make([]listKey, len(c.lists))
		for k, ref := range c.lists {
			byOrd[ref.ord] = k
		}
		for _, d := range c.docs {
			c.eachOrd(d, func(ord uint32) { out[d] = append(out[d], byOrd[ord]) })
		}
	case *Index:
		for k, l := range c.lists {
			for _, p := range l.decodeAll() {
				out[p.doc] = append(out[p.doc], k)
			}
		}
		for _, keys := range out {
			slices.SortFunc(keys, keyCmp)
		}
	}
	return out
}

// analyzedKeys returns, ascending, the keys eachPosting indexes a under.
func analyzedKeys(a analysis.Analyzed) []listKey {
	var out []listKey
	eachPosting(0, a, func(k listKey, _ posting) { out = append(out, k) })
	slices.SortFunc(out, keyCmp)
	return out
}

// checkForward is the forward-key oracle: every live document's keys,
// in the component holding it live — read off a written segment's
// forward section, inverted out of the memtable or a frozen index —
// must be the keys its analyzed form is indexed under.
func checkForward(t testing.TB, s *Store, live []Doc, step string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := map[component]map[DocID][]listKey{}
	for _, d := range live {
		var c component = s.mem
		if !s.mem.Has(d.ID) {
			g := s.liveSegLocked(d.ID)
			if g == nil {
				t.Fatalf("%s: doc %d is not live", step, d.ID)
			}
			c = g.view()
		}
		if keys[c] == nil {
			keys[c] = docKeys(c)
		}
		if got, want := keys[c][d.ID], analyzedKeys(d.A); !slices.Equal(got, want) {
			t.Fatalf("%s: doc %d is listed under %v, its analyzed form under %v", step, d.ID, got, want)
		}
	}
}

// A remove and an update that land on replace's victims after its
// snapshot — one before the file is written, one after — name documents
// live in the new file, so the new segment must tombstone them, its df
// correction read off its own forward section, while what the snapshot
// had already lost stays out of the file. replace's steps run by hand,
// in order, for a seal (its victim is the frozen memtable, which loses
// documents by drops) and a compaction (two segments on disk, which
// lose them by tombstones); afterwards forward keys, statistics,
// rankings and bytes equal the monolith's.
func TestStoreReplaceCarriesOverTombstones(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			docs := randomDocs(23, 240, 0)
			mono := flatFromDocs(docs)
			s := storeOf(t, docs, []int{80, 160}, StoreOptions{})
			s.maintMu.Lock()
			defer s.maintMu.Unlock()
			var victims []*storeSegment
			n, m := &s.seals, mSegSeals
			gone, dead, changed := docs[160], docs[161], docs[239]
			if compact {
				victims, n, m = slices.Clone(s.segs), &s.compacts, mSegCompactions
				gone, dead, changed = docs[0], docs[1], docs[100]
			} else {
				victims = s.freeze()
			}
			live := slices.Clone(docs)
			remove := func(d Doc) {
				s.ApplyDelta(Delta{Removes: []Doc{d}})
				mono.Remove(d.ID)
				live = slices.DeleteFunc(live, func(l Doc) bool { return l.ID == d.ID })
			}

			remove(gone)
			srcs, path := s.snapshot(victims)
			remove(dead)
			checkForward(t, s, live, "before the write")
			r, err := s.writeSegmentFile(path, srcs)
			if err != nil {
				t.Fatal(err)
			}
			newA := randomDocs(77, 1, 0)[0].A
			s.ApplyDelta(Delta{Updates: []DocUpdate{{ID: changed.ID, Old: changed.A, New: newA}}})
			applyDelta(mono, Delta{Updates: []DocUpdate{{ID: changed.ID, New: newA}}})
			live[slices.IndexFunc(live, func(l Doc) bool { return l.ID == changed.ID })].A = newA
			s.swap(victims, srcs, r, n, m)

			// A seal's victim is the frozen memtable, which gone left by a
			// drop, not a tombstone: only the compaction reclaims it.
			reclaimed := uint64(0)
			if compact {
				reclaimed = 1
			}
			merged := s.segs[len(s.segs)-1]
			if st := s.Status(); merged.r != r || st.ReclaimedDocs != reclaimed || st.Tombstones != 2 ||
				!merged.tomb.has(dead.ID) || !merged.tomb.has(changed.ID) {
				t.Fatalf("after the swap: %+v; the new segment tombstones %v", st, merged.tomb.ids)
			}
			checkTombDF(t, s, "after the swap")
			checkForward(t, s, live, "after the swap")
			if s.NumDocs() != mono.NumDocs() {
				t.Fatalf("NumDocs %d, want %d", s.NumDocs(), mono.NumDocs())
			}
			for _, term := range testVocab() {
				if got, want := s.DocFreq(term), mono.DocFreq(term); got != want {
					t.Fatalf("DocFreq(%q) = %d, want %d", term, got, want)
				}
			}
			for e := kb.EntityID(0); e < 50; e++ {
				if got, want := s.EntityFreq(e), mono.EntityFreq(e); got != want {
					t.Fatalf("EntityFreq(%d) = %d, want %d", e, got, want)
				}
			}
			rng := rand.New(rand.NewSource(5))
			for q := 0; q < 8; q++ {
				need := randomNeed(rng)
				for _, alpha := range []float64{0, 0.6, 1} {
					label := fmt.Sprintf("q=%d α=%g", q, alpha)
					assertScoredBitIdentical(t, label, mono.Score(need, alpha), s.Score(need, alpha))
					assertScoredBitIdentical(t, label+" k=5", mono.ScoreTopK(need, alpha, 5, nil), s.ScoreTopK(need, alpha, 5, nil))
				}
			}
			var got, want bytes.Buffer
			if _, err := s.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if _, err := mono.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("store bytes after the swap differ from the monolith's")
			}
		})
	}
}

// Close waits for maintenance in flight instead of closing the segment
// readers a merge is still reading: Compact and Close race on stores of
// three sealed segments, Close landing 0–4.5 ms into the merge, on both
// read paths.
func TestStoreCloseWaitsForMaintenance(t *testing.T) {
	docs := randomDocs(41, 9000, 0)
	for _, stream := range []bool{false, true} {
		for trial := 0; trial < 10; trial++ {
			s := storeOf(t, docs, []int{3000, 6000, 9000}, StoreOptions{forceStream: stream})
			compacted := make(chan error, 1)
			go func() { compacted <- s.Compact() }()
			time.Sleep(time.Duration(trial) * 500 * time.Microsecond)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-compacted; err != nil {
				t.Fatalf("stream=%v trial %d: Compact: %v", stream, trial, err)
			}
		}
	}
}

// OpenSegment rejects files that are not valid sealed segments.
func TestOpenSegmentRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	mono := randomIndex(9, 150)
	var buf bytes.Buffer
	if _, err := mono.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	writeTmp := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := OpenSegment(filepath.Join(dir, "absent.seg"), false); err == nil {
		t.Fatal("opened a missing file")
	}
	if _, err := OpenSegment(writeTmp("magic.seg", []byte("XXXX\x02")), false); err == nil {
		t.Fatal("accepted bad magic")
	}
	v1 := append([]byte("EFIX"), 0x01)
	if _, err := OpenSegment(writeTmp("v1.seg", v1), false); err == nil {
		t.Fatal("accepted a v1 header as a sealed segment")
	}
	for _, cut := range []int{1, 5, 12, len(full) / 2, len(full) - 1} {
		if _, err := OpenSegment(writeTmp("trunc.seg", full[:cut]), false); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	if _, err := OpenSegment(writeTmp("trail.seg", append(append([]byte(nil), full...), 0)), false); err == nil {
		t.Fatal("accepted trailing bytes")
	}

	// Random single-byte corruption either fails to open or opens
	// having fully validated structure — never panics.
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		corrupted := append([]byte(nil), full...)
		corrupted[r.Intn(len(corrupted))] ^= byte(1 + r.Intn(255))
		p := writeTmp("fuzz.seg", corrupted)
		if sr, err := OpenSegment(p, false); err == nil {
			sr.Close()
		}
	}
}

// The -race soak: queries, deltas and background seal/compaction all
// run concurrently — removes included, of sealed documents and of
// fresh ones a seal may be writing — and every query must observe some
// consistent store state, and the final state must match a serial
// rebuild.
func TestStoreConcurrentMaintenance(t *testing.T) {
	docs := randomDocs(14, 300, 0)
	s, err := NewStore(t.TempDir(), StoreOptions{FlushDocs: 40, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddBatch(docs[:200]); err != nil {
		t.Fatal(err)
	}
	s.StartBackground(time.Millisecond)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				need := randomNeed(r)
				got := s.ScoreTopK(need, 0.6, 10, nil)
				for i := 1; i < len(got); i++ {
					if scoredCmp(got[i], got[i-1]) < 0 {
						t.Errorf("unordered results under concurrency")
						return
					}
				}
			}
		}(w)
	}

	mono := flatFromDocs(docs[:200])
	for i := 200; i < 300; i++ {
		d := Delta{Adds: []Doc{docs[i]}}
		if i%3 == 0 {
			victim := docs[i-200]
			d.Removes = []Doc{victim}
			mono.Remove(victim.ID)
		}
		if i%5 == 1 && i > 200 {
			// A fresh document: in the memtable, or in a frozen one a
			// background seal is writing.
			d.Removes = append(d.Removes, docs[i-1])
			mono.Remove(docs[i-1].ID)
		}
		s.ApplyDelta(d)
		checkTombDF(t, s, fmt.Sprintf("step %d", i))
		mono.Add(docs[i])
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	need := randomNeed(rand.New(rand.NewSource(3)))
	assertScoredBitIdentical(t, "post-soak", s.Score(need, 0.6), mono.Score(need, 0.6))
	if st := s.Status(); st.LastError != "" {
		t.Fatalf("background maintenance error: %s", st.LastError)
	}
}

// Accessor and explicit-stats paths: Dir/Path/Size on a sealed store,
// collection-statistics parity with the monolith (including unseen
// dimensions), ScoreStatsTopK under an external collection view — the
// shape the scatter coordinator scores shard slices with — and EachDoc.
func TestStoreAccessorsAndExplicitStats(t *testing.T) {
	docs := randomDocs(5, 300, 0)
	mono := flatFromDocs(docs)
	s := storeOf(t, docs, []int{150}, StoreOptions{})
	if s.Dir() == "" {
		t.Fatal("Dir() empty")
	}
	seg := s.segs[0].r
	if seg.Path() == "" {
		t.Fatal("segment Path() empty")
	}
	if seg.Size() <= 0 {
		t.Fatalf("segment Size() = %d", seg.Size())
	}
	// irf is a pure function of these integers, so equal statistics are
	// equal weights.
	if got, want := s.NumDocs(), mono.NumDocs(); got != want {
		t.Fatalf("NumDocs = %d, want %d", got, want)
	}
	for _, term := range append(testVocab(), "neverindexedterm") {
		if got, want := s.DocFreq(term), mono.DocFreq(term); got != want {
			t.Fatalf("DocFreq(%q) = %d, want %d", term, got, want)
		}
	}
	for e := 0; e < 60; e++ {
		if got, want := s.EntityFreq(kb.EntityID(e)), mono.EntityFreq(kb.EntityID(e)); got != want {
			t.Fatalf("EntityFreq(%d) = %d, want %d", e, got, want)
		}
	}
	r := rand.New(rand.NewSource(99))
	for q := 0; q < 8; q++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			label := fmt.Sprintf("stats q=%d α=%g", q, alpha)
			assertScoredBitIdentical(t, label,
				s.ScoreStatsTopK(need, alpha, mono, 0, nil), mono.ScoreStatsTopK(need, alpha, mono, 0, nil))
			assertScoredBitIdentical(t, label+" k=5",
				s.ScoreStatsTopK(need, alpha, mono, 5, nil),
				mono.ScoreStatsTopK(need, alpha, mono, 5, nil))
		}
	}

	// EachDoc walks the memtable and the sealed segment minus its
	// tombstones, and stops when told to.
	s.ApplyDelta(Delta{Removes: docs[:1]})
	var seen []DocID
	s.EachDoc(func(d DocID) bool { seen = append(seen, d); return true })
	slices.Sort(seen)
	want := make([]DocID, 0, len(docs)-1)
	for _, d := range docs[1:] {
		want = append(want, d.ID)
	}
	slices.Sort(want)
	if !slices.Equal(seen, want) {
		t.Fatalf("EachDoc visited %d docs, want the %d live ones", len(seen), len(want))
	}
	for _, stopAt := range []int{1, len(docs) - 150 + 1} { // in the memtable, in the segment
		n := 0
		s.EachDoc(func(DocID) bool { n++; return n < stopAt })
		if n != stopAt {
			t.Fatalf("EachDoc visited %d docs after being stopped at %d", n, stopAt)
		}
	}
}

// BenchmarkStoreTopK measures a top-10 store find over the layouts
// whose parts differ: one heavy segment beside three light ones, the
// shape of a cold-built store; the same with every twentieth document
// of each segment tombstoned, so every posting a segment admits is
// tested against its tombstones, as between an ingest round and the
// compaction that reclaims it; the one segment compaction leaves; and
// a store with no directory, all 60k documents in its memtable and
// nothing sealed — the in-memory path every default system serves
// from. serial is one caller: the latency of a find on an otherwise
// idle machine. parallel runs GOMAXPROCS callers at once, so a find's
// own workers compete with the other finds for the cores and ns/op is
// the cost at saturation.
func BenchmarkStoreTopK(b *testing.B) {
	docs, need := benchStoreCorpus()
	boundaries := []int{48_000, 52_000, 56_000, 60_000}
	tombstoned := storeOf(b, docs, boundaries, StoreOptions{})
	var removes []Doc
	for i := 0; i < len(docs); i += 20 {
		removes = append(removes, docs[i])
	}
	tombstoned.ApplyDelta(Delta{Removes: removes})
	for _, layout := range []struct {
		name  string
		store *Store
	}{
		{"skewed4", storeOf(b, docs, boundaries, StoreOptions{})},
		{"skewed4-tomb5", tombstoned},
		{"compacted1", storeOf(b, docs, []int{60_000}, StoreOptions{})},
		{"memtable", memStore(docs, 0)},
	} {
		s := layout.store
		b.Run(layout.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ScoreTopK(need, 0.6, 10, nil)
			}
		})
		b.Run(layout.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s.ScoreTopK(need, 0.6, 10, nil)
				}
			})
		})
	}
}
