package index

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// openBytes writes data to a temp file and opens it as a sealed
// segment.
func openBytes(t *testing.T, data []byte, forceStream bool) (*SegmentReader, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000.seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenSegment(path, forceStream)
}

// readBoth runs the same bytes through both entry points of the v3
// reader — ReadIndex, and OpenSegment mmapped and streamed — and holds
// them to one verdict: all accept or all reject, and on accept they
// agree on the document count, every dictionary entry's frequency,
// every document's keys (the segment's forward entries against
// ReadIndex's lists) and the re-serialized bytes (which exercises every
// list load). It returns ReadIndex's result.
func readBoth(t *testing.T, data []byte) (*Index, error) {
	t.Helper()
	ix, err := ReadIndex(bytes.NewReader(data))
	var want bytes.Buffer
	if err == nil {
		if _, err := ix.WriteTo(&want); err != nil {
			t.Fatalf("re-serializing: %v", err)
		}
	}
	for _, stream := range []bool{false, true} {
		sr, serr := openBytes(t, data, stream)
		if (err == nil) != (serr == nil) {
			t.Fatalf("entry points disagree (stream=%v): ReadIndex %v, OpenSegment %v", stream, err, serr)
		}
		if serr != nil {
			continue
		}
		if sr.NumDocs() != ix.NumDocs() || len(sr.keys()) != len(ix.lists) {
			t.Fatalf("stream=%v: %d docs %d lists, ReadIndex %d docs %d lists",
				stream, sr.NumDocs(), len(sr.keys()), ix.NumDocs(), len(ix.lists))
		}
		for k, l := range ix.lists {
			if sr.freq(k) != l.count {
				t.Fatalf("stream=%v: %v frequency %d, ReadIndex %d", stream, k, sr.freq(k), l.count)
			}
		}
		if got, want := docKeys(sr), docKeys(ix); !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("stream=%v: forward entries list other keys than ReadIndex's lists", stream)
		}
		var got bytes.Buffer
		if _, err := writeIndex(&got, []mergeSource{{src: sr}}); err != nil {
			t.Fatalf("stream=%v: re-serializing: %v", stream, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("stream=%v: re-serialized bytes differ from ReadIndex's", stream)
		}
		sr.Close()
	}
	return ix, err
}

// FuzzReadIndex feeds arbitrary bytes to both entry points of the
// binary index reader: neither may panic, they must agree (readBoth),
// and anything they accept must be a structurally valid index.
func FuzzReadIndex(f *testing.F) {
	var buf bytes.Buffer
	if _, err := randomIndex(1, 20).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("EFIX"))
	f.Add([]byte{})
	f.Add([]byte("EFIX\x01\x00\x00\x00"))
	// Accepted by ReadIndex alone before the readers were one scanner:
	// trailing garbage, and a repeated doc id.
	f.Add(append(append([]byte(nil), buf.Bytes()...), 0xAB, 0xCD))
	f.Add([]byte("EFIX\x03\x02\x05\x00\x00\x00"))
	// The golden files: v3 lists that span blocks, with a forward
	// section, and the v2 file the reader now refuses.
	for _, name := range []string{"golden-v3.idx", "golden-v2.idx"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(defaultV3().encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := readBoth(t, data)
		if err != nil {
			return
		}
		for k, l := range ix.lists {
			if l.count == 0 || l.count > ix.NumDocs() {
				t.Fatalf("%v has %d postings for %d docs", k, l.count, ix.NumDocs())
			}
		}
	})
}

// fuzzNeed derives an expertise need from raw fuzz input: whitespace
// fields become query terms (so corpus vocabulary can be seeded
// directly), entity ids and dScores are folded from the bytes.
func fuzzNeed(needText string, entitySeed uint32) analysis.Analyzed {
	need := analysis.Analyzed{
		Terms:    map[string]int{},
		Entities: map[kb.EntityID]analysis.EntityStats{},
	}
	for i, field := range strings.Fields(needText) {
		if i >= 12 {
			break
		}
		need.Terms[field] = 1 + i%3
	}
	for i := 0; i < int(entitySeed%5); i++ {
		id := kb.EntityID((int(entitySeed) + 13*i) % 60)
		need.Entities[id] = analysis.EntityStats{Freq: 1 + i, DScore: float64(entitySeed%101) / 100}
	}
	return need
}

// FuzzIndexScore throws arbitrary needs, alphas and ks at Score and
// ScoreTopK and checks the ranking contract: ordered by (score desc,
// doc asc), all scores positive and finite, every match indexed,
// bit-identical to the naive oracle, byte-identical on repetition,
// bit-identical between the monolith and a store with no directory
// whose memtable is cut into three ranges, and the pruned top-k
// bit-identical to the first k of the exhaustive ranking — also under
// an accept filter derived from the input, which rejects every m-th
// document (m = 1 rejects them all). The checked-in seed-topk-ties
// ties 31 documents at the 10th score, below 5 others: the heap must
// keep the lowest-id ties there.
func FuzzIndexScore(f *testing.F) {
	// Seeds drawn from the synthetic corpus vocabulary and entity space.
	f.Add("swim pool train", uint32(7), uint8(60), uint8(5))
	f.Add("php code", uint32(0), uint8(0), uint8(0))
	f.Add("copper atom wave unseenterm", uint32(49), uint8(100), uint8(1))
	f.Add("", uint32(3), uint8(33), uint8(200))

	corpus := randomDocs(1, 120, 0)
	flat := flatFromDocs(corpus)
	inMem := memStore(corpus, 3)

	f.Fuzz(func(t *testing.T, needText string, entitySeed uint32, alphaByte, kByte uint8) {
		alpha := float64(alphaByte%101) / 100
		need := fuzzNeed(needText, entitySeed)

		got := flat.Score(need, alpha)
		for i, sd := range got {
			if !(sd.Score > 0) || math.IsInf(sd.Score, 0) || math.IsNaN(sd.Score) {
				t.Fatalf("rank %d: bad score %v", i, sd.Score)
			}
			if !flat.Has(sd.Doc) {
				t.Fatalf("rank %d: unknown doc %d", i, sd.Doc)
			}
			if i > 0 && scoredCmp(sd, got[i-1]) < 0 {
				t.Fatalf("ranking out of order at %d: %+v before %+v", i, got[i-1], sd)
			}
		}
		assertScoredBitIdentical(t, "oracle", oracleTopK(flat, flat, need, alpha, 0, nil), got)
		assertScoredBitIdentical(t, "repeat", got, flat.Score(need, alpha))
		assertScoredBitIdentical(t, "store", got, inMem.Score(need, alpha))

		// Pruned top-k must be the first k of the exhaustive ranking,
		// bit for bit, on both the monolith and the store.
		k := int(kByte)
		want := got
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		assertScoredBitIdentical(t, "topk", want, flat.ScoreTopK(need, alpha, k, nil))
		assertScoredBitIdentical(t, "topk store", want, inMem.ScoreTopK(need, alpha, k, nil))

		m := 1 + DocID(entitySeed>>16)%6
		rem := DocID(kByte) % m
		accept := func(d DocID) bool { return d%m != rem }
		want = oracleTopK(flat, flat, need, alpha, k, accept)
		assertScoredBitIdentical(t, "topk accept", want, flat.ScoreTopK(need, alpha, k, accept))
		assertScoredBitIdentical(t, "topk accept store", want, inMem.ScoreTopK(need, alpha, k, accept))
	})
}

// FuzzBlockPostingsRoundTrip builds a term and an entity list through
// Index.write from fuzzed postings and checks the storage contract the
// pruner relies on: whatever the write history, after every batch each
// list is the canonical encoding of its live postings — data, skip
// entries, maximum and count equal to newPostingList's of them, byte
// for byte, and no list once none is left — it decodes to exactly
// those postings, every skip entry's (maxDoc, maxW) bounds its block's
// members, and a batch rewrites each list exactly when it removes a
// posting or lands one below the list's last doc. A posting is three
// bytes: its doc-id gap, its freq and its dScore. The freq byte's top
// bits are flags: 0x80 holds the posting back, to be added after the
// others; 0x40 removes it again in the batch after the one adding it,
// and 0x20 beside 0x40 re-adds it in that same batch, with another
// freq. The order of adds is rotated by rot, reversed by reverse, and
// cut into batches of 1+cuts[j] postings, cycling through cuts (one
// posting a batch when cuts is empty).
func FuzzBlockPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 0, 200}, uint8(0), false, []byte{})
	f.Add([]byte{0, 0, 0}, uint8(7), false, []byte{})
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(130), false, []byte{})
	// Every posting in order, one a batch: appends in place only.
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(0), false, []byte{})
	// Every posting reversed, one a batch: each lands below the last.
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(0), true, []byte{})
	// Postings 20–29 held back, then added as one batch inside the
	// first, full block.
	inside := bytes.Repeat([]byte{5, 1, 128}, 300)
	for i := 20; i < 30; i++ {
		inside[3*i+1] |= 0x80
	}
	f.Add(inside, uint8(0), false, []byte{255, 33, 9})
	// A batch of 290 after rotating by 10: the last 10 land below the
	// first doc.
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(10), false, []byte{255, 33, 9})
	// Every third posting removed in the batch after its own, every
	// sixth of them re-added there: batches that remove inside full
	// blocks, at the list's last doc, and replace an id in place.
	churn := bytes.Repeat([]byte{5, 1, 128, 3, 2, 9, 7, 0x41, 60, 5, 3, 1, 2, 1, 77, 4, 0x63, 200}, 50)
	f.Add(churn, uint8(0), false, []byte{40, 0, 129})
	// The same, one posting a batch, and reversed in batches of 64.
	f.Add(churn, uint8(0), false, []byte{})
	f.Add(churn, uint8(3), true, []byte{63})
	// Every other posting of a 256-posting batch removed in the next,
	// none re-added: removals in two blocks before any add lands.
	f.Add(bytes.Repeat([]byte{5, 1, 128, 3, 0x42, 9}, 150), uint8(0), false, []byte{255})

	f.Fuzz(func(t *testing.T, data []byte, rot uint8, reverse bool, cuts []byte) {
		doc := func(id DocID, tf int32, ds float64) Doc {
			return Doc{ID: id, A: analysis.Analyzed{
				Terms:    map[string]int{"t": int(tf)},
				Entities: map[kb.EntityID]analysis.EntityStats{1: {Freq: int(tf), DScore: ds}},
			}}
		}
		var early, late []Doc
		flags := map[DocID]byte{}
		id := DocID(0)
		for i := 0; i+2 < len(data) && len(flags) < 600; i += 3 {
			id += DocID(data[i]%13) + 1 // strictly ascending: one posting per doc
			flags[id] = data[i+1]
			d := doc(id, int32(data[i+1]%7)+1, float64(data[i+2])/255)
			if data[i+1] >= 0x80 {
				late = append(late, d)
			} else {
				early = append(early, d)
			}
		}
		if len(flags) == 0 {
			return
		}
		order := append(early, late...)
		r := int(rot) % len(order)
		order = slices.Concat(order[r:], order[:r])
		if reverse {
			slices.Reverse(order)
		}

		ix, live := New(), map[DocID]Doc{}
		liveIDs := func() []DocID {
			ids := make([]DocID, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		var again []Doc // added by the last batch and flagged for removal
		for j := 0; len(order) > 0 || len(again) > 0; j++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[j%len(cuts)])
			}
			batch := slices.Clone(order[:min(n, len(order))])
			order = order[len(batch):]
			ids := liveIDs()
			last := DocID(math.MinInt32) // the lists' last doc
			if len(ids) > 0 {
				last = ids[len(ids)-1]
			}
			var gone []DocID
			for _, d := range again {
				gone = append(gone, d.ID)
				delete(live, d.ID)
				if flags[d.ID]&0x20 != 0 {
					tf := int32(d.A.Terms["t"])
					batch = append(batch, doc(d.ID, tf%7+1, d.A.Entities[1].DScore))
				}
			}
			again = again[:0]
			want := mListRebuilds.Value()
			if len(gone) > 0 || slices.ContainsFunc(batch, func(d Doc) bool { return d.ID < last }) {
				want += 2 // the term list and the entity list
			}
			ix.write(gone, batch)
			if got := mListRebuilds.Value(); got != want {
				t.Fatalf("batch %d: %g list rewrites, want %g", j, got, want)
			}
			for _, d := range batch {
				if flags[d.ID]&0x40 != 0 && !slices.Contains(gone, d.ID) {
					again = append(again, d)
				}
				live[d.ID] = d
			}
			var tps, eps []posting
			for _, id := range liveIDs() {
				eachPosting(id, live[id].A, func(k listKey, p posting) {
					if k.kind == termKind {
						tps = append(tps, p)
					} else {
						eps = append(eps, p)
					}
				})
			}
			for k, ps := range map[listKey][]posting{termKey("t"): tps, entityKey(1): eps} {
				l := ix.lists[k]
				if len(ps) == 0 {
					if l != nil {
						t.Fatalf("batch %d: %v holds %d postings with no live doc", j, k, l.count)
					}
					continue
				}
				want := newPostingList(k.kind, ps)
				if !bytes.Equal(l.data, want.data) || !slices.Equal(l.blocks, want.blocks) || l.maxW != want.maxW || l.count != want.count {
					t.Fatalf("batch %d: %v differs from its canonical encoding (rot %d, reverse %v, %d postings): %d blocks, maxW %g; want %d, %g",
						j, k, r, reverse, len(ps), len(l.blocks), l.maxW, len(want.blocks), want.maxW)
				}
				if got := l.decodeAll(); !slices.Equal(got, ps) {
					t.Fatalf("batch %d: %v decodes to %d postings, want the %d live", j, k, len(got), len(ps))
				}
				checkBounds(t, l)
			}
		}
	})
}

// checkBounds decodes every block of l with the block decoder
// the scorer uses and checks it against its skip entry.
func checkBounds(t *testing.T, l *postingList) {
	t.Helper()
	base := DocID(0)
	for i, bm := range l.blocks {
		ps, end := l.kind.decodeRun(nil, l.data, bm.off, int(bm.n), base)
		if len(ps) != int(bm.n) || end != bm.end {
			t.Fatalf("block %d decoded %d postings to byte %d, skip entry says %d to %d", i, len(ps), end, bm.n, bm.end)
		}
		for _, p := range ps {
			if p.doc > bm.maxDoc {
				t.Fatalf("block %d: doc %d above skip maxDoc %d", i, p.doc, bm.maxDoc)
			}
			w := float64(p.freq)
			if l.kind == entityKind {
				if w = 0; p.dScore > 0 {
					w = float64(p.freq) * (1 + p.dScore)
				}
			}
			if w > bm.maxW || w > l.maxW {
				t.Fatalf("block %d: weight %g above bounds (block %g, list %g)", i, w, bm.maxW, l.maxW)
			}
		}
		if ps[len(ps)-1].doc != bm.maxDoc {
			t.Fatalf("block %d: skip maxDoc %d, last doc %d", i, bm.maxDoc, ps[len(ps)-1].doc)
		}
		base = bm.maxDoc
	}
}

// FuzzCursor drives one cursor with next and seek against a sorted
// slice, on term and entity lists built from the fuzz bytes both
// through Index.Add (the postings from the rot-th on added one at a
// time in order, then the ones before it as one batch below the last
// doc, which rebuilds the list) and canonical through newPostingList,
// over a span drawn from the input (driveCursor). A posting is three
// bytes: its doc-id gap less one, its freq less one and its dScore in
// 255ths, so gaps and freqs of 128 and more take multi-byte varints.
func FuzzCursor(f *testing.F) {
	// dense holds docs 1–300, its blocks ending at 128, 256 and 300,
	// their freqs cycling through 3, 6 and 1; wide has gaps of 201 and
	// freqs of 151, two-byte varints both.
	dense := bytes.Repeat([]byte{0, 2, 100, 0, 5, 30, 0, 0, 255}, 100)
	wide := bytes.Repeat([]byte{200, 150, 7}, 300)
	// spanAt is the span byte that puts a bound at dense's doc.
	spanAt := func(doc int) uint16 { return uint16((doc<<16 + 301) / 302) }
	all := uint16(0xFFFF)
	// Seeks inside the entered block, then one over the next block.
	f.Add(dense, uint8(0), uint16(0), all, []byte{0, 0, 1, 5, 1, 60, 0, 0, 3, 3})
	// A seek past the last block, and next once done.
	f.Add(dense, uint8(0), uint16(0), all, []byte{0, 0, 7, 0, 0, 0})
	// span.lo inside the first block, then absolute seeks.
	f.Add(dense, uint8(0), spanAt(50), all, []byte{0, 0, 5, 120, 5, 200})
	// span.hi inside the last block, reached by next and by a seek.
	f.Add(dense, uint8(0), uint16(0), spanAt(280), bytes.Repeat([]byte{0, 0}, 300))
	f.Add(dense, uint8(0), spanAt(200), spanAt(280), []byte{0, 0, 5, 250, 0, 0})
	// Docs 1–100 added last, as one batch below the last doc.
	f.Add(dense, uint8(100), uint16(0), all, []byte{0, 0, 1, 40, 1, 3, 3, 1, 0, 0, 5, 90, 0, 0})
	// Multi-byte deltas and freqs, a narrow span and every seek kind.
	f.Add(wide, uint8(37), uint16(9000), uint16(50000), []byte{0, 0, 1, 250, 3, 9, 5, 100, 0, 0, 1, 3, 7, 1})

	f.Fuzz(func(t *testing.T, data []byte, rot uint8, loB, hiB uint16, ops []byte) {
		var tps, eps []posting
		var docs []Doc
		doc := DocID(0)
		for i := 0; i+2 < len(data) && len(tps) < 600; i += 3 {
			doc += DocID(data[i]) + 1
			freq := int32(data[i+1]) + 1
			ds := float64(data[i+2]) / 255
			tps = append(tps, termPosting(doc, freq))
			eps = append(eps, entityPosting(doc, freq, ds))
			docs = append(docs, Doc{ID: doc, A: analysis.Analyzed{
				Terms:    map[string]int{"built": int(freq)},
				Entities: map[kb.EntityID]analysis.EntityStats{1: {Freq: int(freq), DScore: ds}},
			}})
		}
		if len(tps) == 0 {
			return
		}
		maxDoc := int64(doc)
		span := allDocs
		if loB > 0 {
			span.lo = int64(loB) * (maxDoc + 2) >> 16
		}
		if hiB < 0xFFFF {
			span.hi = max(span.lo+1, int64(hiB)*(maxDoc+2)>>16)
		}
		ix := New()
		r := int(rot) % len(docs)
		for _, d := range docs[r:] {
			ix.Add(d)
		}
		ix.Add(docs[:r]...)
		ix.lists[termKey("canon")] = newPostingList(termKind, tps)
		ix.lists[entityKey(2)] = newPostingList(entityKind, eps)
		for key := range ix.lists {
			driveCursor(t, ix, key, span, ops)
		}
	})
}

// driveCursor binds key's list in src over span and replays ops on the
// cursor, checking after bind and after every op that it stands where a
// sorted slice of the list's postings in span says, and that skipped is
// the number of the span's blocks it has not entered. Ops come in byte
// pairs: an even first byte is next, an odd one a seek, whose target
// the second byte sets by the mode in the first byte's next two bits —
// the current doc plus v, plus 64·v, the v/256 point of the list's doc
// range, or v past its last doc. Which blocks the cursor must have
// entered is modelled on the postings' indices: it enters the block of
// each posting it decodes, next decoding the one after its own and a
// seek the first at or past its target.
func driveCursor(t *testing.T, src listSource, key listKey, span docRange, ops []byte) {
	t.Helper()
	var l postingList
	src.list(key, &l, nil)
	// q is the postings of the span's blocks: those whose doc range,
	// above the previous block's maxDoc, meets the span.
	var q, want []posting
	var blockOf []int
	spanBlocks := 0
	prev, base := int64(math.MinInt64), DocID(0)
	for b, bm := range l.blocks {
		ps, _ := l.kind.decodeRun(nil, l.data, bm.off, int(bm.n), base)
		if int64(bm.maxDoc) >= span.lo && prev+1 < span.hi {
			spanBlocks++
			for _, p := range ps {
				q, blockOf = append(q, p), append(blockOf, b)
			}
		}
		prev, base = int64(bm.maxDoc), bm.maxDoc
	}
	all := l.decodeAll()
	if len(all) == 0 {
		t.Fatalf("%v: no postings", key)
	}
	maxDoc := all[len(all)-1].doc
	for _, p := range all {
		if span.has(p.doc) {
			want = append(want, p)
		}
	}

	a := new(topkAcc)
	a.bind(src, queryPlan{{key: key, w: 1}}, span)
	if len(a.lists) != min(len(want), 1) {
		t.Fatalf("%v span %v: bind kept %d cursors for %d postings in span", key, span, len(a.lists), len(want))
	}
	if len(want) == 0 {
		return
	}
	c := &a.lists[0]

	// The model: the cursor has decoded q[j], and stands on it while it
	// lies in the span; i indexes the same posting in want.
	entered := map[int]bool{}
	i, j := 0, -1
	decode := func(n int) {
		if j = n; j < len(q) {
			entered[blockOf[j]] = true
		}
	}
	done := func() bool { return j == len(q) || int64(q[j].doc) >= span.hi }
	check := func(op string) {
		t.Helper()
		if !done() && (i == len(want) || q[j] != want[i]) {
			t.Fatalf("%v span %v after %s: the model stands on %+v, want[%d] of %d", key, span, op, q[j], i, len(want))
		}
		if c.done != done() || !c.done && c.cur != q[j] {
			at := "done"
			if !done() {
				at = fmt.Sprintf("%+v", q[j])
			}
			t.Fatalf("%v span %v after %s: cursor at %+v done %v, want %s", key, span, op, c.cur, c.done, at)
		}
		if wantSkipped := spanBlocks - len(entered); c.skipped != wantSkipped {
			t.Fatalf("%v span %v after %s: skipped %d, want %d of %d span blocks not entered", key, span, op, c.skipped, wantSkipped, spanBlocks)
		}
	}
	// seekTo decodes the first posting at or past d.
	seekTo := func(d DocID) {
		n := j + 1
		for n < len(q) && q[n].doc < d {
			n++
		}
		decode(n)
		for i < len(want) && want[i].doc < d {
			i++
		}
	}
	if span.lo > allDocs.lo {
		seekTo(DocID(span.lo))
	} else {
		decode(0)
	}
	check("bind")
	for o := 0; o+1 < len(ops); o += 2 {
		if ops[o]&1 == 0 {
			c.next()
			if !done() {
				decode(j + 1)
				i++
			}
			check("next")
			continue
		}
		cur, v := maxDoc, DocID(ops[o+1])
		if !done() {
			cur = q[j].doc
		}
		var d DocID
		switch ops[o] >> 1 & 3 {
		case 0:
			d = cur + v
		case 1:
			d = cur + 64*v
		case 2:
			d = DocID(int64(v) * int64(maxDoc+2) / 256)
		case 3:
			d = maxDoc + 1 + v
		}
		c.seek(d)
		if !done() && q[j].doc < d {
			seekTo(d)
		}
		check(fmt.Sprintf("seek(%d)", d))
	}
}
