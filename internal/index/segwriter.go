package index

import (
	"sort"

	"expertfind/internal/analysis"
)

// component is what the store scores and merges: an in-memory Index
// (the memtable, or a frozen one awaiting its disk file) or a sealed
// SegmentReader.
type component interface {
	listSource
	NumDocs() int
	Has(id DocID) bool
	// docIDs returns every doc id, ascending.
	docIDs() []DocID
	// keys returns the dictionary, in no particular order.
	keys() []listKey
	// freq returns the number of postings under k without loading them.
	freq(k listKey) int
}

func (ix *Index) docIDs() []DocID {
	out := make([]DocID, 0, len(ix.docs))
	for d := range ix.docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *Index) keys() []listKey {
	out := make([]listKey, 0, len(ix.lists))
	for k := range ix.lists {
		out = append(out, k)
	}
	return out
}

// mergeSource is one input of writeIndex: a component minus its
// dropped (tombstoned) documents. drop maps each dropped document to
// the analyzed form it was indexed under; it may be nil.
type mergeSource struct {
	src  component
	drop map[DocID]analysis.Analyzed
}

func (s mergeSource) dropped(d DocID) bool {
	_, ok := s.drop[d]
	return ok
}

// liveDocs returns the non-dropped doc ids, ascending.
func (s mergeSource) liveDocs() []DocID {
	docs := s.src.docIDs()
	if len(s.drop) == 0 {
		return docs
	}
	live := make([]DocID, 0, len(docs))
	for _, d := range docs {
		if !s.dropped(d) {
			live = append(live, d)
		}
	}
	return live
}

// postings returns k's live postings in ascending doc order, empty
// when the source holds none or every one is dropped.
func (s mergeSource) postings(k listKey) []posting {
	l := s.src.list(k)
	if l == nil {
		return nil
	}
	ps := l.sorted()
	if len(s.drop) == 0 {
		return ps
	}
	return dropDocs(ps, s.dropped)
}
