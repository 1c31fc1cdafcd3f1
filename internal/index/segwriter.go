package index

import "slices"

// component is what the store scores and merges: an in-memory Index
// (the memtable, or a frozen one awaiting its disk file) or a sealed
// SegmentReader.
type component interface {
	listSource
	NumDocs() int
	Has(id DocID) bool
	// docIDs returns every doc id, ascending: the component's own slice,
	// read-only.
	docIDs() []DocID
	// keys returns the dictionary, in no particular order.
	keys() []listKey
	// freq returns the number of postings under k without loading them.
	freq(k listKey) int
}

func (ix *Index) docIDs() []DocID { return ix.ids }

func (ix *Index) keys() []listKey {
	out := make([]listKey, 0, len(ix.lists))
	for k := range ix.lists {
		out = append(out, k)
	}
	return out
}

// mergeSource is one input of writeIndex: a component minus drop's
// documents, whose df tells writeIndex how many postings each list
// loses before it decodes one. The zero value drops nothing.
type mergeSource struct {
	src  component
	drop tombstones
}

// liveDocs returns the non-dropped doc ids, ascending.
func (s mergeSource) liveDocs() []DocID {
	docs := s.src.docIDs()
	if s.drop.ids.size() == 0 {
		return docs
	}
	live := make([]DocID, 0, len(docs))
	for _, d := range docs {
		if !s.drop.has(d) {
			live = append(live, d)
		}
	}
	return live
}

// postings returns k's live postings in ascending doc order, empty
// when the source holds none or every one is dropped.
func (s mergeSource) postings(k listKey) []posting {
	var l postingList
	if s.src.list(k, &l, nil); l.count == 0 {
		return nil
	}
	ps := l.decodeAll()
	if s.drop.ids.size() == 0 {
		return ps
	}
	return slices.DeleteFunc(ps, func(p posting) bool { return s.drop.has(p.doc) })
}
