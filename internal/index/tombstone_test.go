package index

import (
	"math/rand"
	"slices"
	"testing"
)

// checkIDSet compares s with the map oracle want: has on every id from
// -1 to a word past top, size, and each's members in ascending order.
func checkIDSet(t *testing.T, s *idSet, want map[DocID]bool, top DocID) {
	t.Helper()
	for d := DocID(-1); d <= top+64; d++ {
		if got := s.has(d); got != want[d] {
			t.Fatalf("has(%d) = %v, the map says %v", d, got, want[d])
		}
	}
	if s.size() != len(want) {
		t.Fatalf("size() = %d, the map holds %d", s.size(), len(want))
	}
	ids := make([]DocID, 0, len(want))
	for d := range want {
		ids = append(ids, d)
	}
	slices.Sort(ids)
	var got []DocID
	s.each(func(d DocID) { got = append(got, d) })
	if !slices.Equal(got, ids) {
		t.Fatalf("each visits %v, want %v", got, ids)
	}
}

// TestIDSetMatchesMap: the tombstone bitset answers every question the
// map it replaced answered, at the word edges and past its last word.
func TestIDSetMatchesMap(t *testing.T) {
	var none *idSet
	checkIDSet(t, none, nil, 0)
	checkIDSet(t, new(idSet), nil, 0)

	r := rand.New(rand.NewSource(7))
	s, want := new(idSet), map[DocID]bool{}
	for _, d := range []DocID{0, 63, 64, 127} {
		s.add(d)
		want[d] = true
		checkIDSet(t, s, want, 127)
	}
	for i := 0; i < 400; i++ {
		d := DocID(r.Intn(1000))
		s.add(d) // repeats included: a second add is a no-op
		want[d] = true
	}
	checkIDSet(t, s, want, 1000)
}

// TestIDSetHoldsSegmentLargestID tombstones every edge of a real
// segment — its first id, the word edges and its largest id — through
// the store's write path.
func TestIDSetHoldsSegmentLargestID(t *testing.T) {
	docs := randomDocs(23, 120, 0)
	s := storeOf(t, docs, []int{len(docs)}, StoreOptions{})
	g := s.segs[0]
	ids := g.view().docIDs()
	top := ids[len(ids)-1]
	byID := map[DocID]Doc{}
	for _, d := range docs {
		byID[d.ID] = d
	}
	want := map[DocID]bool{}
	for _, d := range []DocID{ids[0], 63, 64, 127, top} {
		doc, ok := byID[d]
		if !ok {
			continue // randomDocs skips some ids
		}
		s.ApplyDelta(Delta{Removes: []Doc{doc}})
		want[d] = true
	}
	if !want[top] {
		t.Fatalf("the segment's largest id %d was not tombstoned", top)
	}
	checkIDSet(t, g.tomb.ids, want, top)
	checkTombDF(t, s, "after the removes")
}

func TestIDSetCloneIsIndependent(t *testing.T) {
	var none *idSet
	if none.clone() != nil {
		t.Fatal("a nil set clones to a non-nil one")
	}
	s := new(idSet)
	s.add(5)
	c := s.clone()
	c.add(700) // grows the clone's words past the original's
	s.add(6)
	checkIDSet(t, s, map[DocID]bool{5: true, 6: true}, 700)
	checkIDSet(t, c, map[DocID]bool{5: true, 700: true}, 700)
}

func TestIDSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("add(-1) did not panic")
		}
	}()
	new(idSet).add(-1)
}

// TestLostSince: a replace carries over exactly the documents its
// victim lost after the snapshot — tombstones on a written victim,
// drops from a copy of a frozen one — while the snapshot keeps what it
// took.
func TestLostSince(t *testing.T) {
	docs := randomDocs(31, 200, 0)
	s := storeOf(t, docs, []int{100}, StoreOptions{})
	written, frozen := s.segs[0], s.freeze()[0]
	remove := func(ds []Doc) {
		var d Delta
		for _, doc := range ds {
			d.Removes = append(d.Removes, Doc{ID: doc.ID})
		}
		s.ApplyDelta(d)
	}
	remove(docs[0:30])
	remove(docs[100:110])
	snapW := mergeSource{src: written.view(), drop: written.tomb.clone()}
	snapF := mergeSource{src: frozen.view()}
	remove(docs[30:60])
	remove(docs[110:130])

	for _, c := range []struct {
		name string
		g    *storeSegment
		snap mergeSource
		want []Doc
	}{
		{"written", written, snapW, docs[30:60]},
		{"frozen", frozen, snapF, docs[110:130]},
	} {
		var got, want []DocID
		c.g.lostSince(c.snap, func(id DocID) { got = append(got, id) })
		for _, d := range c.want {
			want = append(want, d.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s victim lost %v since the snapshot, want %v", c.name, got, want)
		}
	}
	if n := snapW.drop.ids.size(); n != 30 {
		t.Fatalf("the written snapshot grew to %d tombstones with its source", n)
	}
	if n := snapF.src.NumDocs(); n != 90 {
		t.Fatalf("the frozen snapshot holds %d docs, want the 90 it was taken with", n)
	}
}
