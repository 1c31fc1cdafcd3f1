package index

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"expertfind/internal/kb"
)

// The one blocked posting list. Eq. (1) sums over two kinds of
// dimension — tf·irf² terms and ef·eirf²·we entities — and a kind is
// data here, not a code path: a term list and an entity list are the
// same type, differing only in the posting payload codec (append,
// decodeRun and the block-bound encoding in codec.go, whose header is
// the format specification). A list keeps its postings in two regions:
//
//   - a sealed region of fixed-size blocks, delta-encoded on ascending
//     DocID (each block's base is the previous block's maximum doc id),
//     with one skip entry per block recording the block's byte offset,
//     posting count, maximum doc id and maximum weightless score;
//   - a small unsorted tail of recent Add postings, in the same
//     byte encoding with absolute doc ids (a few bytes per posting).
//
// Sealing happens at build time (Add), never during scoring, so
// concurrent Score calls stay read-only. The tail is folded into the
// sealed region whenever it reaches max(blockSize, sealed/4) postings,
// which keeps re-encoding amortized near O(n log n) over a build. The
// sealed region is always canonical: blocks are cut every blockSize
// postings of the fully sorted list, so two lists holding the same
// postings encode byte-identically regardless of insertion history.
//
// The skip entries are what the top-k cursors consume: a seek passes
// over every block whose maxDoc lies below its target without decoding
// it. The "weightless" score of a posting is its contribution to Eq. (1)
// with the query weight divided out — tf for a term posting, ef·we for
// an entity posting — and the list's maxW, the largest over its blocks
// and tail, times the planned weight bounds every member's contribution.

// blockSize is the number of postings per sealed block. 128 keeps a
// block within a few cache lines when decoded while making the
// per-block skip metadata (~32 bytes) a <2% overhead.
const blockSize = 128

// postingKind selects a list's payload codec.
type postingKind uint8

const (
	termKind postingKind = iota
	entityKind
)

// listKey names one posting list — a dictionary entry. Keys order
// terms (lexicographic) before entities (ascending id): plan order,
// and the order of the v3 file's two dictionary sections.
type listKey struct {
	term string      // termKind
	ent  kb.EntityID // entityKind
	kind postingKind
}

func termKey(t string) listKey        { return listKey{kind: termKind, term: t} }
func entityKey(e kb.EntityID) listKey { return listKey{kind: entityKind, ent: e} }

func keyCmp(a, b listKey) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	if a.kind == termKind {
		return strings.Compare(a.term, b.term)
	}
	return cmp.Compare(a.ent, b.ent)
}

// posting is the decoded form of one list entry. we is the Eq. (2)
// factor the kind's codec resolves once: 1 for a term, 1+dScore for an
// entity with positive disambiguation confidence, 0 otherwise. A
// posting contributes float64(freq)·w·we to Eq. (1), left associated —
// bit-identical to tf·w for a term — and weight() is that contribution
// with the query weight w divided out.
type posting struct {
	doc    DocID
	freq   int32   // tf or ef
	dScore float64 // entities only
	we     float64
}

func termPosting(doc DocID, tf int32) posting {
	return posting{doc: doc, freq: tf, we: 1}
}

func entityPosting(doc DocID, ef int32, dScore float64) posting {
	p := posting{doc: doc, freq: ef, dScore: dScore}
	if dScore > 0 {
		p.we = 1 + dScore
	}
	return p
}

func (p posting) weight() float64 { return float64(p.freq) * p.we }

// append encodes one posting: docDelta uvarint, freq uvarint, and for
// an entity the dScore as 8 bytes little endian.
func (k postingKind) append(b []byte, docDelta uint64, p posting) []byte {
	b = binary.AppendUvarint(b, docDelta)
	b = binary.AppendUvarint(b, uint64(p.freq))
	if k == entityKind {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.dScore))
	}
	return b
}

// decodeRun is the one posting decoder: it appends to dst the n
// postings encoded at data[pos:] and returns the offset past them. In
// a sealed block doc ids are deltas chained from base; tail postings
// carry absolute ids (chained false, base 0). It never reads out of
// bounds: a negative offset reports bytes that do not hold n
// well-formed postings, which only unvalidated input can produce.
func (k postingKind) decodeRun(dst []posting, data []byte, pos, n int, base DocID, chained bool) ([]posting, int) {
	switch k {
	case termKind:
		for ; n > 0; n-- {
			delta, m1 := uvarintAt(data, pos)
			tf, m2 := uvarintAt(data, pos+m1)
			if m1 == 0 || m2 == 0 {
				return dst, -1
			}
			pos += m1 + m2
			doc := base + DocID(delta)
			if chained {
				base = doc
			}
			dst = append(dst, termPosting(doc, int32(tf)))
		}
	case entityKind:
		for ; n > 0; n-- {
			delta, m1 := uvarintAt(data, pos)
			ef, m2 := uvarintAt(data, pos+m1)
			pos += m1 + m2
			if m1 == 0 || m2 == 0 || pos+8 > len(data) {
				return dst, -1
			}
			dScore := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
			doc := base + DocID(delta)
			if chained {
				base = doc
			}
			dst = append(dst, entityPosting(doc, int32(ef), dScore))
		}
	}
	return dst, pos
}

// uvarintAt is the one varint reader: it decodes a uvarint at
// data[pos:], returning the value and its length, or length 0 for a
// truncated or overlong encoding. Single-byte varints dominate delta
// streams and take the inlined fast path.
func uvarintAt(data []byte, pos int) (uint64, int) {
	if pos >= len(data) {
		return 0, 0
	}
	if b := data[pos]; b < 0x80 {
		return uint64(b), 1
	}
	return uvarintSlow(data[pos:])
}

func uvarintSlow(b []byte) (uint64, int) {
	if v, n := binary.Uvarint(b); n > 0 {
		return v, n
	}
	return 0, 0
}

// blockMeta is one sealed block's skip entry.
type blockMeta struct {
	off, end int     // the block's postings are data[off:end]
	n        int32   // postings in the block (narrow: the entry stays 32 bytes)
	maxDoc   DocID   // maximum (= last) doc id in the block
	maxW     float64 // maximum weightless posting score in the block
}

// postingList is a blocked posting list for one term or entity.
type postingList struct {
	kind postingKind
	// data holds the sealed blocks' postings, each at its skip entry's
	// [off, end). A built list packs them back to back; a list read from
	// a segment is the file's own list body, skip entries interleaved,
	// and must not be written to (it may be the mmap itself).
	data   []byte
	blocks []blockMeta
	tail   []byte  // unsorted recent postings, absolute doc ids
	count  int     // total postings, sealed + tail
	maxW   float64 // list-wide maximum weightless score
}

// sealed returns the number of postings in the sealed region. Blocks
// are canonical, so only the last can be short.
func (l *postingList) sealed() int {
	if n := len(l.blocks); n > 0 {
		return (n-1)*blockSize + int(l.blocks[n-1].n)
	}
	return 0
}

func (l *postingList) add(p posting) {
	l.tail = l.kind.append(l.tail, uint64(p.doc), p)
	l.count++
	if w := p.weight(); w > l.maxW {
		l.maxW = w
	}
	// Fold the tail in once it holds max(blockSize, sealed/4) postings.
	sealed := l.sealed()
	if tail := l.count - sealed; tail >= blockSize && tail*4 >= sealed {
		l.encode(l.sorted())
	}
}

// decodeAll returns every posting, sealed region first (in doc order)
// then the tail (in insertion order). A document appears at most once
// per list.
func (l *postingList) decodeAll() []posting {
	out := make([]posting, 0, l.count)
	base := DocID(0)
	for _, bm := range l.blocks {
		out, _ = l.kind.decodeRun(out, l.data, bm.off, int(bm.n), base, true)
		base = bm.maxDoc
	}
	out, _ = l.kind.decodeRun(out, l.tail, 0, l.count-l.sealed(), 0, false)
	return out
}

// holdsAny reports whether the list holds a posting of any of the
// ascending ids, decoding into buf (returned for reuse) only the blocks
// whose doc range takes one of them, and the tail.
func (l *postingList) holdsAny(ids []DocID, buf []posting) (bool, []posting) {
	found := func(ps []posting) bool {
		for _, p := range ps {
			if hasID(ids, p.doc) {
				return true
			}
		}
		return false
	}
	base, lo := DocID(0), DocID(0) // the block's ids are in [lo, bm.maxDoc]
	for _, bm := range l.blocks {
		if i, _ := slices.BinarySearch(ids, lo); i < len(ids) && ids[i] <= bm.maxDoc {
			if buf, _ = l.kind.decodeRun(buf[:0], l.data, bm.off, int(bm.n), base, true); found(buf) {
				return true, buf
			}
		}
		base, lo = bm.maxDoc, bm.maxDoc+1
	}
	buf, _ = l.kind.decodeRun(buf[:0], l.tail, 0, l.count-l.sealed(), 0, false)
	return found(buf), buf
}

// sorted returns every posting in ascending doc order — the canonical
// form the codec serializes.
func (l *postingList) sorted() []posting {
	ps := l.decodeAll()
	if len(l.tail) > 0 {
		sortPostings(ps)
	}
	return ps
}

func sortPostings(ps []posting) {
	slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.doc, b.doc) })
}

// encode rebuilds the sealed region from postings sorted by ascending
// doc id and clears the tail.
func (l *postingList) encode(ps []posting) {
	l.data = l.data[:0]
	l.blocks = l.blocks[:0]
	prev := DocID(0)
	for start := 0; start < len(ps); start += blockSize {
		end := start + blockSize
		if end > len(ps) {
			end = len(ps)
		}
		bm := blockMeta{off: len(l.data), n: int32(end - start)}
		for _, p := range ps[start:end] {
			l.data = l.kind.append(l.data, uint64(p.doc-prev), p)
			prev = p.doc
			if w := p.weight(); w > bm.maxW {
				bm.maxW = w
			}
		}
		bm.end, bm.maxDoc = len(l.data), prev
		l.blocks = append(l.blocks, bm)
	}
	l.tail = nil
	l.count = len(ps)
}

// newPostingList builds a fully sealed, canonical list from postings
// in ascending doc order.
func newPostingList(kind postingKind, ps []posting) *postingList {
	l := &postingList{kind: kind}
	for _, p := range ps {
		if w := p.weight(); w > l.maxW {
			l.maxW = w
		}
	}
	l.encode(ps)
	return l
}
