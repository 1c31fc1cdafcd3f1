package index

import (
	"bytes"
	"math/rand"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// randomAnalyzed draws one analyzed document over the shard test
// vocabulary, mirroring randomDocs' per-document distribution.
func randomAnalyzed(r *rand.Rand) analysis.Analyzed {
	vocab := shardTestVocab()
	terms := map[string]int{}
	for j := 0; j < 1+r.Intn(10); j++ {
		terms[vocab[r.Intn(len(vocab))]]++
	}
	ents := map[kb.EntityID]analysis.EntityStats{}
	for j := 0; j < r.Intn(4); j++ {
		ds := 0.0
		if r.Intn(4) > 0 {
			ds = r.Float64()
		}
		ents[kb.EntityID(r.Intn(50))] = analysis.EntityStats{Freq: 1 + r.Intn(3), DScore: ds}
	}
	return analysis.Analyzed{Terms: terms, Entities: ents}
}

// corpusState tracks the ground-truth corpus a delta sequence is
// mutating: the analyzed form of every live document.
type corpusState struct {
	live   map[DocID]analysis.Analyzed
	ids    []DocID // sorted insertion order of live ids, for determinism
	nextID DocID
}

func newCorpusState(docs []Doc) *corpusState {
	st := &corpusState{live: make(map[DocID]analysis.Analyzed)}
	for _, d := range docs {
		st.live[d.ID] = d.A
		st.ids = append(st.ids, d.ID)
		if d.ID >= st.nextID {
			st.nextID = d.ID + 1
		}
	}
	return st
}

// randomDelta draws one add/update/delete batch against the current
// state and folds it into the ground truth.
func (st *corpusState) randomDelta(r *rand.Rand) Delta {
	var d Delta
	// Removes: up to 8 distinct live docs.
	for i := 0; i < r.Intn(9) && len(st.ids) > 0; i++ {
		j := r.Intn(len(st.ids))
		id := st.ids[j]
		d.Removes = append(d.Removes, Doc{ID: id, A: st.live[id]})
		delete(st.live, id)
		st.ids = append(st.ids[:j], st.ids[j+1:]...)
	}
	// Updates: up to 12 of the remaining live docs get new content.
	for i := 0; i < r.Intn(13) && len(st.ids) > 0; i++ {
		id := st.ids[r.Intn(len(st.ids))]
		na := randomAnalyzed(r)
		d.Updates = append(d.Updates, DocUpdate{ID: id, Old: st.live[id], New: na})
		st.live[id] = na
	}
	// Adds: up to 15 fresh sparse ids.
	for i := 0; i < r.Intn(16); i++ {
		id := st.nextID + DocID(r.Intn(3))
		st.nextID = id + 1
		a := randomAnalyzed(r)
		d.Adds = append(d.Adds, Doc{ID: id, A: a})
		st.live[id] = a
		st.ids = append(st.ids, id)
	}
	// An update in the same delta as the add/remove of another doc is
	// the common real shape; updating a doc added in this same delta
	// is not (the ingester diffs one installed corpus against one
	// fetched catalog), so randomDelta never produces it.
	return d
}

func (st *corpusState) docs() []Doc {
	out := make([]Doc, 0, len(st.ids))
	for _, id := range st.ids {
		out = append(out, Doc{ID: id, A: st.live[id]})
	}
	return out
}

// TestDeltaVsRebuildDifferential is the delta correctness spine: for
// randomized add/update/delete sequences, an index that absorbed the
// deltas in place must be indistinguishable from a cold rebuild of the
// resulting corpus — bit-identical Score and ScoreTopK rankings for
// every shard count, alpha and k, and a byte-identical serialized
// segment (deletes compact away without a trace).
func TestDeltaVsRebuildDifferential(t *testing.T) {
	shardCounts := []int{1, 2, 3, 7}
	alphas := []float64{0, 0.6, 1}
	ks := []int{1, 10, 0} // 0 = unbounded

	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		start := randomDocs(seed, 180, 0)

		st := newCorpusState(start)
		mono := flatFromDocs(start)
		shardeds := make([]*Sharded, len(shardCounts))
		for i, n := range shardCounts {
			shardeds[i] = NewSharded(n)
			shardeds[i].workers = 1 + i%3 // sequential and pooled scoring both
			shardeds[i].AddBatch(start)
		}

		for round := 0; round < 6; round++ {
			d := st.randomDelta(r)
			for _, u := range d.Updates {
				mono.Update(u.ID, u.Old, u.New)
			}
			for _, rm := range d.Removes {
				mono.Remove(rm.ID, rm.A)
			}
			for _, a := range d.Adds {
				mono.Add(a.ID, a.A)
			}
			for _, s := range shardeds {
				s.ApplyDelta(d)
			}

			rebuild := flatFromDocs(st.docs())
			if rebuild.NumDocs() != mono.NumDocs() {
				t.Fatalf("seed %d round %d: monolith has %d docs, rebuild %d",
					seed, round, mono.NumDocs(), rebuild.NumDocs())
			}
			needs := []analysis.Analyzed{randomNeed(r), randomNeed(r), randomNeed(r)}
			for _, need := range needs {
				for _, alpha := range alphas {
					want := rebuild.Score(need, alpha)
					assertScoredBitIdentical(t, "mono delta vs rebuild", want, mono.Score(need, alpha))
					for _, s := range shardeds {
						assertScoredBitIdentical(t, "sharded delta vs rebuild",
							want, s.Score(need, alpha))
					}
					for _, k := range ks {
						wantK := want
						if k > 0 && len(wantK) > k {
							wantK = wantK[:k]
						}
						assertScoredBitIdentical(t, "mono topk delta vs rebuild",
							wantK, mono.ScoreTopK(need, alpha, k, nil))
						for _, s := range shardeds {
							assertScoredBitIdentical(t, "sharded topk delta vs rebuild",
								wantK, s.ScoreTopK(need, alpha, k, nil))
						}
					}
				}
			}

			// Segment byte-identity: deletes and updates must compact
			// away entirely — the delta-absorbed index serializes to
			// the exact bytes a cold rebuild writes.
			var wantSeg, gotSeg bytes.Buffer
			if _, err := rebuild.WriteTo(&wantSeg); err != nil {
				t.Fatal(err)
			}
			if _, err := mono.WriteTo(&gotSeg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantSeg.Bytes(), gotSeg.Bytes()) {
				t.Fatalf("seed %d round %d: monolith segment differs from rebuild segment", seed, round)
			}
			for i, s := range shardeds {
				gotSeg.Reset()
				if _, err := s.WriteTo(&gotSeg); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantSeg.Bytes(), gotSeg.Bytes()) {
					t.Fatalf("seed %d round %d: %d-shard segment differs from rebuild segment",
						seed, round, shardCounts[i])
				}
			}
		}
	}
}

// TestRemoveDropsEmptyLists removes every document and requires the
// index to end structurally empty: no term or entity list survives, so
// nothing orphaned can leak into stats, planning, or serialization.
func TestRemoveDropsEmptyLists(t *testing.T) {
	docs := randomDocs(11, 150, 0)
	ix := flatFromDocs(docs)
	s := NewSharded(3)
	s.AddBatch(docs)
	for _, d := range docs {
		ix.Remove(d.ID, d.A)
		s.ApplyDelta(Delta{Removes: []Doc{d}})
	}
	if ix.NumDocs() != 0 || len(ix.lists) != 0 {
		t.Fatalf("monolith not empty after removing everything: %d docs, %d lists",
			ix.NumDocs(), len(ix.lists))
	}
	if s.NumDocs() != 0 {
		t.Fatalf("sharded index reports %d docs after removing everything", s.NumDocs())
	}
	flat := s.Flatten()
	if len(flat.lists) != 0 {
		t.Fatalf("sharded index kept %d lists after removing everything", len(flat.lists))
	}
	var empty, got bytes.Buffer
	if _, err := New().WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty.Bytes(), got.Bytes()) {
		t.Fatal("fully emptied index does not serialize like a fresh one")
	}
}

// TestRemovePanicsOnUnknown pins the programming-error contract:
// removing a document that is not indexed, or with an analyzed form
// naming a dimension the index never saw for it, must panic rather
// than silently corrupt posting lists.
func TestRemovePanicsOnUnknown(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	a := analysis.Analyzed{Terms: map[string]int{"swim": 1}}
	ix := New()
	ix.Add(1, a)
	mustPanic("unknown doc", func() { ix.Remove(2, a) })
	mustPanic("absent list", func() {
		ix.Remove(1, analysis.Analyzed{Terms: map[string]int{"notindexed": 1}})
	})
	ix2 := New()
	ix2.Add(1, a)
	ix2.Add(2, analysis.Analyzed{Terms: map[string]int{"pool": 1}})
	mustPanic("posting missing", func() {
		// "pool" exists as a list, but doc 1 is not in it.
		ix2.Remove(1, analysis.Analyzed{Terms: map[string]int{"pool": 1}})
	})
}

// FuzzDeltaApply interleaves adds, updates and removes in a
// fuzz-chosen order and checks that the surviving index is exactly the
// cold rebuild of the surviving documents: bit-identical rankings,
// byte-identical segment, canonical block encoding with sound skip
// bounds on every list.
func FuzzDeltaApply(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 200, 9, 9, 9}, "swim pool")
	f.Add(int64(2), []byte{255, 254, 253, 1, 1, 1, 1, 1, 1, 7}, "copper atom")
	f.Add(int64(3), bytes.Repeat([]byte{3, 50, 129}, 80), "php train game")

	f.Fuzz(func(t *testing.T, seed int64, ops []byte, needText string) {
		r := rand.New(rand.NewSource(seed))
		st := newCorpusState(randomDocs(seed, 60, 0))
		ix := flatFromDocs(st.docs())
		s := NewSharded(3)
		s.AddBatch(st.docs())

		for _, op := range ops {
			switch {
			case op < 100: // add
				id := st.nextID + DocID(op%5)
				st.nextID = id + 1
				a := randomAnalyzed(r)
				st.live[id] = a
				st.ids = append(st.ids, id)
				ix.Add(id, a)
				s.Add(id, a)
			case op < 180: // update
				if len(st.ids) == 0 {
					continue
				}
				id := st.ids[int(op)%len(st.ids)]
				na := randomAnalyzed(r)
				ix.Update(id, st.live[id], na)
				s.ApplyDelta(Delta{Updates: []DocUpdate{{ID: id, Old: st.live[id], New: na}}})
				st.live[id] = na
			default: // remove
				if len(st.ids) == 0 {
					continue
				}
				j := int(op) % len(st.ids)
				id := st.ids[j]
				ix.Remove(id, st.live[id])
				s.ApplyDelta(Delta{Removes: []Doc{{ID: id, A: st.live[id]}}})
				delete(st.live, id)
				st.ids = append(st.ids[:j], st.ids[j+1:]...)
			}
		}

		rebuild := flatFromDocs(st.docs())
		need := fuzzNeed(needText, uint32(seed))
		for _, alpha := range []float64{0, 0.6, 1} {
			want := rebuild.Score(need, alpha)
			assertScoredBitIdentical(t, "fuzz mono", want, ix.Score(need, alpha))
			assertScoredBitIdentical(t, "fuzz sharded", want, s.Score(need, alpha))
			wantK := want
			if len(wantK) > 5 {
				wantK = wantK[:5]
			}
			assertScoredBitIdentical(t, "fuzz topk", wantK, s.ScoreTopK(need, alpha, 5, nil))
		}

		// Skip-bound soundness on every list's sealed region (Remove
		// rebuilds the lists it touches fully sealed).
		for _, l := range ix.lists {
			checkBounds(t, l)
		}

		var wantSeg, gotSeg bytes.Buffer
		if _, err := rebuild.WriteTo(&wantSeg); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.WriteTo(&gotSeg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSeg.Bytes(), gotSeg.Bytes()) {
			t.Fatal("delta-applied segment differs from rebuild segment")
		}
		// The serialized form must survive the fully-validating reader
		// (recomputed maxima, canonical block-size invariant).
		if _, err := ReadIndex(bytes.NewReader(gotSeg.Bytes())); err != nil {
			t.Fatalf("delta-applied segment rejected by reader: %v", err)
		}
	})
}
