package index

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"

	"expertfind/internal/kb"
)

// The one blocked posting list. Eq. (1) sums over two kinds of
// dimension — tf·irf² terms and ef·eirf²·we entities — and a kind is
// data here, not a code path: a term list and an entity list are the
// same type, differing only in the posting payload codec (append,
// decode, pass and the block-bound encoding in codec.go, whose header is
// the format specification). A list keeps its postings in one form:
// fixed-size blocks, delta-encoded on ascending DocID (each block's
// base is the previous block's maximum doc id), with one skip entry per
// block recording the block's byte offset, posting count, maximum doc
// id and maximum weightless score. Blocks are cut every blockSize
// postings, so only the last can be short: the form is canonical, and
// two lists holding the same postings encode byte-identically
// regardless of insertion history.
//
// Writes keep it so at build time (Index.write), never during scoring,
// so concurrent Score calls stay read-only. A posting whose doc follows
// the list's last is appended in place to the last block, or starts a
// new block once that one holds blockSize postings; a write batch that
// removes a posting from a list or lands one below its last doc
// rewrites that list once, as a new list (postingList.write).
//
// The skip entries are what the top-k cursors consume: a seek passes
// over every block whose maxDoc lies below its target without decoding
// it, and inside the block it lands in parses only the deltas before
// its target. The "weightless" score of a posting is its contribution
// to Eq. (1) with the query weight divided out — tf for a term
// posting, ef·we for an entity posting — and the list's maxW, the
// largest over its blocks, times the planned weight bounds
// every member's contribution.

// blockSize is the number of postings per block. 128 keeps a
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

// decode is the one posting decoder: it decodes the posting encoded
// at data[pos:], whose doc id is base plus its delta, and returns it
// with the offset past it. It never reads out of bounds: a negative
// offset reports bytes that do not hold a well-formed posting, which
// only unvalidated input can produce.
func (k postingKind) decode(data []byte, pos int, base DocID) (posting, int) {
	delta, m1 := uvarintAt(data, pos)
	freq, m2 := uvarintAt(data, pos+m1)
	pos += m1 + m2
	if m1 == 0 || m2 == 0 {
		return posting{}, -1
	}
	doc := base + DocID(delta)
	if k == termKind {
		return termPosting(doc, int32(freq)), pos
	}
	if pos+8 > len(data) {
		return posting{}, -1
	}
	return entityPosting(doc, int32(freq), math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))), pos + 8
}

// pass passes over the first of the n postings encoded at data[pos:],
// their doc ids chained from base, that lie below d, parsing only their
// deltas: a freq is skipped to its varint's last byte, an entity's
// dScore by its 8 bytes. It returns the offset of the first posting at
// or past d, the base its delta chains from and the postings left from
// it on. The bytes must be well formed.
func (k postingKind) pass(data []byte, pos, n int, base, d DocID) (int, DocID, int) {
	for ; n > 0; n-- {
		delta, m := uvarintAt(data, pos)
		if base+DocID(delta) >= d {
			break
		}
		base += DocID(delta)
		for pos += m; data[pos] >= 0x80; pos++ {
		}
		pos++
		if k == entityKind {
			pos += 8
		}
	}
	return pos, base, n
}

// decodeRun appends to dst the n postings encoded at data[pos:], their
// doc ids deltas chained from base, and returns the offset past them,
// negative where decode finds a malformed one.
func (k postingKind) decodeRun(dst []posting, data []byte, pos, n int, base DocID) ([]posting, int) {
	for ; n > 0; n-- {
		var p posting
		if p, pos = k.decode(data, pos, base); pos < 0 {
			return dst, -1
		}
		base = p.doc
		dst = append(dst, p)
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

// blockMeta is one block's skip entry.
type blockMeta struct {
	off, end int     // the block's postings are data[off:end]
	n        int32   // postings in the block (narrow: the entry stays 32 bytes)
	maxDoc   DocID   // maximum (= last) doc id in the block
	maxW     float64 // maximum weightless posting score in the block
}

// postingList is a blocked posting list for one term or entity.
type postingList struct {
	kind postingKind
	// data holds the blocks' postings, each at its skip entry's
	// [off, end). A built list packs them back to back; a list read from
	// a segment is the file's own list body, skip entries interleaved,
	// and must not be written to (it may be the mmap itself).
	data   []byte
	blocks []blockMeta
	count  int     // total postings
	maxW   float64 // list-wide maximum weightless score
}

// follows reports whether doc may be appended in place: the list is
// empty or doc lies past its last doc.
func (l *postingList) follows(doc DocID) bool {
	return len(l.blocks) == 0 || doc > l.blocks[len(l.blocks)-1].maxDoc
}

// add appends p, whose doc the list follows, in place: to the last
// block, or to a new one once that holds blockSize postings. The list
// stays canonical. A built list owns its bytes, so the append never
// writes into another list's.
func (l *postingList) add(p posting) {
	prev, n := DocID(0), len(l.blocks)
	if n > 0 {
		prev = l.blocks[n-1].maxDoc
	}
	if n == 0 || l.blocks[n-1].n == blockSize {
		l.blocks = append(l.blocks, blockMeta{off: len(l.data)})
		n++
	}
	l.data = l.kind.append(l.data, uint64(p.doc-prev), p)
	bm := &l.blocks[n-1]
	bm.end, bm.maxDoc = len(l.data), p.doc
	bm.n++
	if w := p.weight(); w > bm.maxW {
		bm.maxW = w
		l.maxW = max(l.maxW, w)
	}
	l.count++
}

// write returns the list with the postings of the ascending ids gone
// dropped and the ascending ps added, which hold no doc it keeps. If
// it holds none of gone and ps follow its last doc, ps are appended in
// place and l is returned. Otherwise the list is rewritten from the
// first block that changes — the earlier of the first that holds a
// gone id and the one ps[0] lands in — into a new list, nil if it is
// left empty: the full blocks before that one are copied as they are,
// since canonical blocks are cut every blockSize postings from the
// list's start, and nothing l holds is written, so an index clone still
// reading l is unaffected.
func (l *postingList) write(gone []DocID, ps []posting) *postingList {
	from := len(l.blocks)
	if len(ps) > 0 && !l.follows(ps[0].doc) {
		from = sort.Search(from, func(i int) bool { return l.blocks[i].maxDoc >= ps[0].doc })
	}
	base, lo := DocID(0), DocID(0) // block b's docs lie in [lo, its maxDoc]
	g := 0                         // gone[:g] lie below lo
scan:
	for b, bm := range l.blocks[:from] {
		for g < len(gone) && gone[g] < lo {
			g++
		}
		if g == len(gone) {
			break
		}
		pos, d, n := bm.off, base, int(bm.n)
		for i := g; i < len(gone) && gone[i] <= bm.maxDoc; i++ {
			if pos, d, n = l.kind.pass(l.data, pos, n, d, gone[i]); n == 0 {
				break
			}
			if delta, _ := uvarintAt(l.data, pos); d+DocID(delta) == gone[i] {
				from = b
				break scan
			}
		}
		base, lo = bm.maxDoc, bm.maxDoc+1
	}
	if from == len(l.blocks) {
		for _, p := range ps {
			l.add(p)
		}
		return l
	}
	base = 0
	if from > 0 {
		base = l.blocks[from-1].maxDoc
	}
	rest := make([]posting, 0, l.count-from*blockSize)
	for _, bm := range l.blocks[from:] {
		rest, _ = l.kind.decodeRun(rest, l.data, bm.off, int(bm.n), base)
		base = bm.maxDoc
	}
	w := &postingList{
		kind:   l.kind,
		data:   make([]byte, l.blocks[from].off, len(l.data)+len(ps)*(len(l.data)/l.count+1)),
		blocks: make([]blockMeta, from, len(l.blocks)+len(ps)/blockSize+1),
		count:  from * blockSize,
	}
	copy(w.data, l.data)
	copy(w.blocks, l.blocks)
	for _, bm := range w.blocks {
		w.maxW = max(w.maxW, bm.maxW)
	}
	for len(rest) > 0 || len(ps) > 0 {
		if len(ps) == 0 || len(rest) > 0 && rest[0].doc < ps[0].doc {
			for g < len(gone) && gone[g] < rest[0].doc { // gone[:g] lie below every posting of rest
				g++
			}
			if g == len(gone) || gone[g] != rest[0].doc {
				w.add(rest[0])
			}
			rest = rest[1:]
		} else {
			w.add(ps[0])
			ps = ps[1:]
		}
	}
	if w.count == 0 {
		return nil
	}
	return w
}

// decodeAll returns every posting in ascending doc order — the
// canonical form the codec serializes. A document appears at most once
// per list.
func (l *postingList) decodeAll() []posting {
	out := make([]posting, 0, l.count)
	base := DocID(0)
	for _, bm := range l.blocks {
		out, _ = l.kind.decodeRun(out, l.data, bm.off, int(bm.n), base)
		base = bm.maxDoc
	}
	return out
}

func sortPostings(ps []posting) {
	slices.SortFunc(ps, func(a, b posting) int { return cmp.Compare(a.doc, b.doc) })
}

// newPostingList builds a canonical list from postings in ascending doc
// order.
func newPostingList(kind postingKind, ps []posting) *postingList {
	l := &postingList{kind: kind}
	for _, p := range ps {
		l.add(p)
	}
	return l
}
