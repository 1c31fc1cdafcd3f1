package index

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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

// readBoth runs the same bytes through both entry points of the v2
// reader — ReadIndex, and OpenSegment mmapped and streamed — and holds
// them to one verdict: all accept or all reject, and on accept they
// agree on the document count, every dictionary entry's frequency and
// the re-serialized bytes (which exercises every list load). It
// returns ReadIndex's result.
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
	f.Add([]byte("EFIX\x02\x02\x05\x00\x00\x00"))

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

// FuzzBlockPostingsRoundTrip builds blocked posting lists from fuzzed
// postings inserted in a fuzz-chosen rotation and checks the storage
// contract the pruner relies on: the canonical encoding is
// byte-identical regardless of insertion order, decoding returns
// exactly the inserted postings, and every skip entry's (maxDoc, maxW)
// bounds its block's members.
func FuzzBlockPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 0, 200}, uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(7))
	f.Add(bytes.Repeat([]byte{5, 1, 128}, 300), uint8(130))

	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		var tps, eps []posting
		doc := DocID(0)
		for i := 0; i+2 < len(data) && len(tps) < 600; i += 3 {
			doc += DocID(data[i]%13) + 1 // strictly ascending: one posting per doc
			tf := int32(data[i+1]%7) + 1
			tps = append(tps, termPosting(doc, tf))
			eps = append(eps, entityPosting(doc, tf, float64(data[i+2])/255))
		}
		if len(tps) == 0 {
			return
		}

		r := int(rot) % len(tps)
		for kind, ps := range map[postingKind][]posting{termKind: tps, entityKind: eps} {
			// Insert in a rotated order; the canonical form must not care.
			l := &postingList{kind: kind}
			for i := range ps {
				l.add(ps[(i+r)%len(ps)])
			}
			want := newPostingList(kind, ps)
			got := l.sorted()
			canon := newPostingList(kind, got)
			if !bytes.Equal(canon.data, want.data) {
				t.Fatalf("kind %d encoding differs by insertion order (rot %d, %d postings)", kind, r, len(ps))
			}
			// Decode round trip: sorted() must return the inserted postings.
			if len(got) != len(ps) {
				t.Fatalf("kind %d round trip lost postings: %d/%d", kind, len(got), len(ps))
			}
			for i := range ps {
				if got[i] != ps[i] {
					t.Fatalf("kind %d posting %d: got %+v want %+v", kind, i, got[i], ps[i])
				}
			}
			// Bound soundness: list and block maxima dominate their
			// members, in the half-sealed list and the canonical one.
			checkBounds(t, l)
			checkBounds(t, canon)
		}
	})
}

// checkBounds decodes every sealed block of l with the block decoder
// the scorer uses and checks it against its skip entry.
func checkBounds(t *testing.T, l *postingList) {
	t.Helper()
	base := DocID(0)
	for i, bm := range l.blocks {
		ps, end := l.kind.decodeRun(nil, l.data, bm.off, int(bm.n), base, true)
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
