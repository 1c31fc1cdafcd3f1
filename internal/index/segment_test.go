package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// storeOf builds a store whose sealed layout is given by boundaries:
// docs[0:boundaries[0]] is sealed first, then docs up to
// boundaries[1], and so on; the remainder stays in the memtable.
func storeOf(t *testing.T, docs []Doc, boundaries []int, o StoreOptions) *Store {
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
		ix.Add(d, a)
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

// The differential grid: every (seed, layout, streaming mode, α, k)
// combination must rank bit-identically to the monolithic index and
// to the sharded index over the same documents.
func TestStoreScoringBitIdentical(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		docs := randomDocs(seed, 500, 0)
		mono := flatFromDocs(docs)
		shard := NewSharded(3)
		shard.AddBatch(docs)
		for _, layout := range [][]int{nil, {500}, {170, 340}, {40, 90, 300, 460}} {
			for _, stream := range []bool{false, true} {
				s := storeOf(t, docs, layout, StoreOptions{forceStream: stream})
				if s.NumDocs() != mono.NumDocs() {
					t.Fatalf("NumDocs %d, want %d", s.NumDocs(), mono.NumDocs())
				}
				r := rand.New(rand.NewSource(seed * 31))
				for q := 0; q < 12; q++ {
					need := randomNeed(r)
					for _, alpha := range []float64{0, 0.6, 1} {
						want := mono.Score(need, alpha)
						label := fmt.Sprintf("seed=%d layout=%v stream=%v q=%d α=%g", seed, layout, stream, q, alpha)
						assertScoredBitIdentical(t, label, s.Score(need, alpha), want)
						assertScoredBitIdentical(t, label+" sharded", shard.Score(need, alpha), want)
						for _, k := range []int{1, 3, 25} {
							wantK := want
							if len(wantK) > k {
								wantK = wantK[:k]
							}
							assertScoredBitIdentical(t, fmt.Sprintf("%s k=%d", label, k),
								s.ScoreTopK(need, alpha, k, nil), wantK)
						}
					}
				}
			}
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
		for _, rm := range d.Removes {
			mono.Remove(rm.ID, rm.A)
		}
		for _, u := range d.Updates {
			mono.Update(u.ID, u.Old, u.New)
		}
		for _, a := range d.Adds {
			mono.Add(a.ID, a.A)
		}

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
	tombs := s.Status().Tombstones
	if tombs == 0 {
		t.Fatal("expected tombstones before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
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
		if err := s.Add(d.ID, d.A); err != nil {
			t.Fatalf("Add: %v", err)
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
	if _, err := NewStore(dir, StoreOptions{}); err == nil {
		t.Fatal("NewStore accepted overlapping segments")
	}
}

// A failed seal rolls the frozen memtable (and tombstones it attracted)
// back, leaving the store unchanged; a retry after the fault clears
// succeeds.
func TestStoreSealFailureRollsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	docs := randomDocs(21, 120, 0)
	s, err := NewStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	need := randomNeed(rand.New(rand.NewSource(6)))
	want := s.Score(need, 0.6)

	// Sabotage the directory so the segment file cannot be created.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err == nil {
		t.Fatal("Seal succeeded without a store directory")
	}
	if st := s.Status(); len(st.Segments) != 0 || st.MemtableDocs != len(docs) {
		t.Fatalf("rollback left %+v", st)
	}
	assertScoredBitIdentical(t, "after failed seal", s.Score(need, 0.6), want)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("retry seal: %v", err)
	}
	assertScoredBitIdentical(t, "after retry", s.Score(need, 0.6), want)
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
// run concurrently; every query must observe some consistent store
// state, and the final state must match a serial rebuild.
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
			mono.Remove(victim.ID, victim.A)
		}
		s.ApplyDelta(d)
		mono.Add(docs[i].ID, docs[i].A)
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
// IRF/EIRF parity with the monolith (including unseen dimensions),
// ScoreStatsTopK under an external collection view — the shape the
// scatter coordinator scores shard slices with — and EachDoc.
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
	for _, term := range append(shardTestVocab(), "neverindexedterm") {
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
