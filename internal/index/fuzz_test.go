package index

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// FuzzReadIndex feeds arbitrary bytes to the binary index reader: it
// must reject or accept without panicking, and anything it accepts
// must be a structurally valid index.
func FuzzReadIndex(f *testing.F) {
	var buf bytes.Buffer
	if _, err := randomIndex(1, 20).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("EFIX"))
	f.Add([]byte{})
	f.Add([]byte("EFIX\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: basic invariants must hold.
		if ix.NumDocs() < 0 {
			t.Fatal("negative doc count")
		}
		for term, l := range ix.terms {
			if l.count > ix.NumDocs() {
				t.Fatalf("term %q has more postings than docs", term)
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
// bit-identical between the sequential index and a 3-shard split of
// the same documents, and the pruned top-k bit-identical to the first
// k of the exhaustive ranking.
func FuzzIndexScore(f *testing.F) {
	// Seeds drawn from the synthetic corpus vocabulary and entity space.
	f.Add("swim pool train", uint32(7), uint8(60), uint8(5))
	f.Add("php code", uint32(0), uint8(0), uint8(0))
	f.Add("copper atom wave unseenterm", uint32(49), uint8(100), uint8(1))
	f.Add("", uint32(3), uint8(33), uint8(200))

	corpus := randomDocs(1, 120, 0)
	flat := flatFromDocs(corpus)
	sharded := NewSharded(3)
	sharded.AddBatch(corpus)

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
			if i > 0 && scoredLess(sd, got[i-1]) {
				t.Fatalf("ranking out of order at %d: %+v before %+v", i, got[i-1], sd)
			}
		}
		assertScoredBitIdentical(t, "oracle", oracleTopK(flat, flat, need, alpha, 0, nil), got)
		assertScoredBitIdentical(t, "repeat", got, flat.Score(need, alpha))
		assertScoredBitIdentical(t, "sharded", got, sharded.Score(need, alpha))

		// Pruned top-k must be the first k of the exhaustive ranking,
		// bit for bit, on both the monolith and the sharded split.
		k := int(kByte)
		want := got
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		assertScoredBitIdentical(t, "topk", want, flat.ScoreTopK(need, alpha, k, nil))
		assertScoredBitIdentical(t, "topk sharded", want, sharded.ScoreTopK(need, alpha, k, nil))
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
		var tps []termPosting
		var eps []entityPosting
		doc := DocID(0)
		for i := 0; i+2 < len(data) && len(tps) < 600; i += 3 {
			doc += DocID(data[i]%13) + 1 // strictly ascending: one posting per doc
			tf := int32(data[i+1]%7) + 1
			tps = append(tps, termPosting{doc: doc, tf: tf})
			eps = append(eps, entityPosting{doc: doc, ef: tf, dScore: float64(data[i+2]) / 255})
		}
		if len(tps) == 0 {
			return
		}

		// Insert in a rotated order; the canonical form must not care.
		tl, el := &termList{}, &entityList{}
		r := int(rot) % len(tps)
		for i := range tps {
			j := (i + r) % len(tps)
			tl.add(tps[j])
			el.add(eps[j])
		}
		wantT := newTermList(tps)
		wantE := newEntityList(eps)
		ct, ce := tl.canonical(), el.canonical()
		if !bytes.Equal(ct.data, wantT.data) {
			t.Fatalf("term encoding differs by insertion order (rot %d, %d postings)", r, len(tps))
		}
		if !bytes.Equal(ce.data, wantE.data) {
			t.Fatalf("entity encoding differs by insertion order (rot %d, %d postings)", r, len(tps))
		}

		// Decode round trip: sorted() must return the inserted postings.
		gotT, gotE := tl.sorted(), el.sorted()
		if len(gotT) != len(tps) || len(gotE) != len(eps) {
			t.Fatalf("round trip lost postings: %d/%d term, %d/%d entity",
				len(gotT), len(tps), len(gotE), len(eps))
		}
		for i := range tps {
			if gotT[i] != tps[i] {
				t.Fatalf("term posting %d: got %+v want %+v", i, gotT[i], tps[i])
			}
			if gotE[i] != eps[i] {
				t.Fatalf("entity posting %d: got %+v want %+v", i, gotE[i], eps[i])
			}
		}

		// Bound soundness: list and block maxima dominate their members.
		checkTermBounds(t, ct)
		checkEntityBounds(t, ce)
	})
}

func checkTermBounds(t *testing.T, l *termList) {
	t.Helper()
	var scratch []termPosting
	base := DocID(0)
	for i, bm := range l.blocks {
		scratch = l.decodeBlock(i, base, scratch[:0])
		if len(scratch) != bm.n {
			t.Fatalf("block %d decoded %d postings, skip entry says %d", i, len(scratch), bm.n)
		}
		for _, p := range scratch {
			if p.doc > bm.maxDoc {
				t.Fatalf("block %d: doc %d above skip maxDoc %d", i, p.doc, bm.maxDoc)
			}
			if w := float64(p.tf); w > bm.maxW || w > l.maxW {
				t.Fatalf("block %d: weight %g above bounds (block %g, list %g)", i, w, bm.maxW, l.maxW)
			}
		}
		if scratch[len(scratch)-1].doc != bm.maxDoc {
			t.Fatalf("block %d: skip maxDoc %d, last doc %d", i, bm.maxDoc, scratch[len(scratch)-1].doc)
		}
		base = bm.maxDoc
	}
}

func checkEntityBounds(t *testing.T, l *entityList) {
	t.Helper()
	var scratch []entityPosting
	base := DocID(0)
	for i, bm := range l.blocks {
		scratch = l.decodeBlock(i, base, scratch[:0])
		if len(scratch) != bm.n {
			t.Fatalf("block %d decoded %d postings, skip entry says %d", i, len(scratch), bm.n)
		}
		for _, p := range scratch {
			if p.doc > bm.maxDoc {
				t.Fatalf("block %d: doc %d above skip maxDoc %d", i, p.doc, bm.maxDoc)
			}
			if w := entityWeight(p); w > bm.maxW || w > l.maxW {
				t.Fatalf("block %d: weight %g above bounds (block %g, list %g)", i, w, bm.maxW, l.maxW)
			}
		}
		if scratch[len(scratch)-1].doc != bm.maxDoc {
			t.Fatalf("block %d: skip maxDoc %d, last doc %d", i, bm.maxDoc, scratch[len(scratch)-1].doc)
		}
		base = bm.maxDoc
	}
}

// FuzzShardedMergeEquivalence builds two disjoint random corpora with
// fuzz-chosen sizes and shard counts, merges one sharded index into
// the other (equal or re-routing path), and requires the result to
// score bit-identically to a monolithic index over the union.
func FuzzShardedMergeEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4), uint8(4), "swim pool")
	f.Add(int64(3), int64(4), uint8(3), uint8(5), "php copper milan")
	f.Add(int64(5), int64(6), uint8(1), uint8(16), "train match game atom")

	f.Fuzz(func(t *testing.T, seedA, seedB int64, shardsA, shardsB uint8, needText string) {
		nA, nB := int(shardsA%8)+1, int(shardsB%8)+1
		docsA := randomDocs(seedA, 40+int((seedA%7+7)%7)*10, 0)
		docsB := randomDocs(seedB, 40+int((seedB%7+7)%7)*10, 10_000)

		flat := flatFromDocs(append(append([]Doc(nil), docsA...), docsB...))
		a := NewSharded(nA)
		a.AddBatch(docsA)
		b := NewSharded(nB)
		b.AddBatch(docsB)
		a.Merge(b)

		if flat.NumDocs() != a.NumDocs() {
			t.Fatalf("merged doc count %d, want %d", a.NumDocs(), flat.NumDocs())
		}
		need := fuzzNeed(needText, uint32(seedA)+uint32(seedB))
		for _, alpha := range []float64{0, 0.6, 1} {
			assertScoredBitIdentical(t, "merge", flat.Score(need, alpha), a.Score(need, alpha))
		}
	})
}
