package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"expertfind/internal/kb"
)

// Binary index format, version 2 — this comment is its specification;
// writeIndex is the only writer and scanIndex the only reader. The same
// file is a serialized Index (ReadIndex) and a sealed store segment
// (OpenSegment). All integers are unsigned varints unless noted.
//
//	magic   "EFIX" (4 bytes)
//	version uvarint (2)
//	numDocs uvarint, then the doc ids ascending: the first absolute,
//	    every later one as the (non-zero) delta from its predecessor
//	numTerms uvarint, then per term in lexicographic order:
//	    len(term) uvarint, term bytes, list body
//	numEntities uvarint, then per entity in ascending id order:
//	    entityID uvarint, list body
//	end of file
//
// A list body serializes the blocked posting list of blockpostings.go
// directly, so a loaded list carries the skip entries the top-k pruner
// needs without re-encoding:
//
//	count uvarint (total postings, > 0), nBlocks uvarint, per block:
//	    n uvarint (postings in the block),
//	    maxDocDelta uvarint (the block's maximum doc id minus the
//	        previous block's, absolute for the first),
//	    bound (the block's maximum weightless score: a term list
//	        stores max tf as a uvarint, an entity list max ef·we as a
//	        float64, 8 bytes little endian),
//	    byteLen uvarint, then byteLen bytes of postings
//
// A posting is docDelta uvarint (from the previous posting; the first
// of a block from the previous block's maximum, 0 before the first
// block), then the payload of the list's kind — a term posting is
// tf uvarint; an entity posting is ef uvarint, dScore float64 (8 bytes
// little endian, in [0,1]). Its weightless score is tf, resp. ef·we
// with we = 1+dScore for dScore > 0 and 0 otherwise (Eq. 2).
//
// Blocks are canonical — every block holds exactly blockSize postings
// except the last — and the writer re-blocks from fully sorted
// postings, so two indexes over the same documents serialize
// byte-identically regardless of build order, shard or segment layout.
//
// There is no checksum: the format targets trusted local storage. The
// scanner instead rejects every structural inconsistency: bad magic or
// version; a doc id that repeats or leaves the DocID range; dictionary
// keys out of order or repeated; an empty list; a postings count above
// numDocs; non-canonical blocking; a posting that is malformed, not
// strictly ascending, names a document outside the doc section, or
// carries a dScore outside [0,1]; bytes left over in a block; a skip
// entry whose maximum doc id or bound differs from the one recomputed
// from its postings (skip entries feed pruning proofs); any truncation;
// and any byte after the entity section.

const (
	codecMagic   = "EFIX"
	codecVersion = 2
)

func (k listKey) String() string {
	if k.kind == termKind {
		return fmt.Sprintf("term %q", k.term)
	}
	return fmt.Sprintf("entity %d", k.ent)
}

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return writeIndex(w, []mergeSource{{src: ix}})
}

// writeIndex streams the live union of srcs to w in the v2 format
// without materializing the merged index: one posting list is resident
// at a time. The sources' live document sets must be disjoint (the
// store guarantees at most one live occurrence of any document). The
// output is canonical, so writing any partition of a document set
// produces the byte-identical file a monolithic Index over the same
// live documents would write.
func writeIndex(w io.Writer, srcs []mergeSource) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	cw.Write([]byte(codecMagic))
	writeUvarint(cw, codecVersion)

	var docs []DocID
	for _, s := range srcs {
		docs = append(docs, s.liveDocs()...)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	writeUvarint(cw, uint64(len(docs)))
	for i, d := range docs {
		if i == 0 {
			writeUvarint(cw, uint64(int64(d)))
			continue
		}
		if d == docs[i-1] {
			return cw.n, fmt.Errorf("index: merge sources share live doc %d", d)
		}
		writeUvarint(cw, uint64(int64(d)-int64(docs[i-1])))
	}

	// Each dictionary section leads with its entry count. A list's live
	// size is known without decoding it: its count in every source,
	// minus the source's dropped documents that hold the key.
	live := map[listKey]int{}
	for _, s := range srcs {
		for _, k := range s.src.keys() {
			live[k] += s.src.freq(k)
		}
		for d, a := range s.drop {
			eachPosting(d, a, func(k listKey, _ posting) { live[k]-- })
		}
	}
	keys := make([]listKey, 0, len(live))
	for k, n := range live {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	nTerms := sort.Search(len(keys), func(i int) bool { return keys[i].kind != termKind })

	for _, section := range [][]listKey{keys[:nTerms], keys[nTerms:]} {
		writeUvarint(cw, uint64(len(section)))
		for _, k := range section {
			var ps []posting
			for _, s := range srcs {
				if q := s.postings(k); len(ps) == 0 {
					ps = q // freshly decoded: adopt, most keys have one source
				} else {
					ps = append(ps, q...)
				}
			}
			if len(ps) != live[k] {
				return cw.n, fmt.Errorf("index: %v holds %d live postings, its sources and their dropped documents account for %d", k, len(ps), live[k])
			}
			sortPostings(ps)
			if k.kind == termKind {
				writeUvarint(cw, uint64(len(k.term)))
				cw.Write([]byte(k.term))
			} else {
				writeUvarint(cw, uint64(k.ent))
			}
			writeListBody(cw, newPostingList(k.kind, ps))
			if cw.err != nil {
				return cw.n, cw.err
			}
		}
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, bw.Flush()
}

// writeListBody serializes one canonical (fully sealed) list.
func writeListBody(cw *countWriter, l *postingList) {
	writeUvarint(cw, uint64(l.count))
	writeUvarint(cw, uint64(len(l.blocks)))
	prevMax := DocID(0)
	for _, bm := range l.blocks {
		writeUvarint(cw, uint64(bm.n))
		writeUvarint(cw, uint64(bm.maxDoc-prevMax))
		if l.kind == termKind {
			writeUvarint(cw, uint64(bm.maxW))
		} else {
			cw.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(bm.maxW)))
		}
		data := l.data[bm.off:bm.end]
		writeUvarint(cw, uint64(len(data)))
		cw.Write(data)
		prevMax = bm.maxDoc
	}
}

// maxSkipEntry bounds the encoded size of a block's skip entry: at
// most four varints.
const maxSkipEntry = 4 * binary.MaxVarintLen64

// skipEntryAt parses the skip entry of one block of a kind list at
// raw[pos:] — n, maxDocDelta, bound, byteLen — returning the offset of
// the block's postings, or 0 when raw does not hold a whole entry.
func skipEntryAt(raw []byte, pos int, kind postingKind) (n, maxDocDelta uint64, bound float64, byteLen uint64, next int) {
	n, m1 := uvarintAt(raw, pos)
	maxDocDelta, m2 := uvarintAt(raw, pos+m1)
	pos += m1 + m2
	m3 := 8
	if kind == termKind {
		var tf uint64
		tf, m3 = uvarintAt(raw, pos)
		bound = float64(tf)
	} else if pos+8 <= len(raw) {
		bound = math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:]))
	} else {
		m3 = 0
	}
	byteLen, m4 := uvarintAt(raw, pos+m3)
	if m1 == 0 || m2 == 0 || m3 == 0 || m4 == 0 {
		return 0, 0, 0, 0, 0
	}
	return n, maxDocDelta, bound, byteLen, pos + m3 + m4
}

// scanner is the sequential reader scanIndex validates through; it
// tracks the logical byte offset so the segment opener can record
// where each list body lives.
type scanner struct {
	br  *bufio.Reader
	off int64
	buf [blockSize]posting // one block's decoded postings
}

func (s *scanner) ReadByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.off++
	}
	return b, err
}

// uvarint reads one header varint, refusing values above limit.
func (s *scanner) uvarint(what string, limit uint64) (uint64, error) {
	v, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", what, err)
	}
	if v > limit {
		return 0, fmt.Errorf("implausible %s %d", what, v)
	}
	return v, nil
}

// bytes reads exactly n bytes into a fresh buffer.
func (s *scanner) bytes(what string, n uint64) ([]byte, error) {
	buf := make([]byte, n)
	m, err := io.ReadFull(s.br, buf)
	s.off += int64(m)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", what, err)
	}
	return buf, nil
}

// scanIndex is the one sequential validating pass over a v2 file. It
// returns the doc ids (ascending) and hands every dictionary entry to
// entry in file order: its key, its fully validated list, and the byte
// range [off, end) of its list body. ReadIndex keeps the lists; the
// segment opener keeps only where they are.
func scanIndex(r io.Reader, entry func(k listKey, l *postingList, off, end int64)) ([]DocID, error) {
	s := &scanner{br: bufio.NewReaderSize(r, 64<<10)}

	magic, err := s.bytes("magic", 4)
	if err != nil {
		return nil, err
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	if version, err := s.uvarint("version", math.MaxUint64); err != nil {
		return nil, err
	} else if version != codecVersion {
		return nil, fmt.Errorf("unsupported version %d (want %d)", version, codecVersion)
	}

	nDocs, err := s.uvarint("doc count", 1<<31)
	if err != nil {
		return nil, err
	}
	var docs []DocID
	for i := uint64(0); i < nDocs; i++ {
		delta, err := s.uvarint("doc id", math.MaxInt32)
		if err != nil {
			return nil, err
		}
		d := int64(delta)
		if i > 0 {
			if d += int64(docs[i-1]); delta == 0 {
				return nil, fmt.Errorf("duplicate doc %d", d)
			}
		}
		if d > math.MaxInt32 {
			return nil, fmt.Errorf("doc id %d out of range", d)
		}
		docs = append(docs, DocID(d))
	}

	for _, kind := range []postingKind{termKind, entityKind} {
		n, err := s.uvarint("dictionary size", 1<<31)
		if err != nil {
			return nil, err
		}
		var prev listKey
		for i := uint64(0); i < n; i++ {
			k := listKey{kind: kind}
			if kind == termKind {
				tlen, err := s.uvarint("term length", 1<<16)
				if err != nil {
					return nil, err
				}
				name, err := s.bytes("term", tlen)
				if err != nil {
					return nil, err
				}
				k.term = string(name)
			} else {
				id, err := s.uvarint("entity id", math.MaxInt32)
				if err != nil {
					return nil, err
				}
				k.ent = kb.EntityID(id)
			}
			if i > 0 && !keyLess(prev, k) {
				return nil, fmt.Errorf("%v out of order", k)
			}
			prev = k
			off := s.off
			l, err := s.list(kind, docs)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", k, err)
			}
			entry(k, l, off, s.off)
		}
	}

	if _, err := s.ReadByte(); err != io.EOF {
		return nil, errors.New("trailing bytes after entity section")
	}
	return docs, nil
}

// list reads and validates one list body against the sorted doc ids.
// Skip metadata is load-bearing for pruning correctness, so every
// declared block bound is recomputed from the decoded postings and
// must match exactly.
func (s *scanner) list(kind postingKind, docs []DocID) (*postingList, error) {
	count, err := s.uvarint("postings count", math.MaxUint64)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, errors.New("has no postings")
	}
	if count > uint64(len(docs)) {
		return nil, fmt.Errorf("%d postings for %d docs", count, len(docs))
	}
	nBlocks, err := s.uvarint("block count", math.MaxUint64)
	if err != nil {
		return nil, err
	}
	if want := (count + blockSize - 1) / blockSize; nBlocks != want {
		return nil, fmt.Errorf("%d blocks for %d postings (want %d)", nBlocks, count, want)
	}

	l := &postingList{kind: kind, count: int(count), blocks: make([]blockMeta, 0, nBlocks)}
	remaining := int(count)
	base, prevDoc := DocID(0), int64(-1)
	cur := 0 // forward cursor into docs: postings ascend within a list
	for b := uint64(0); b < nBlocks; b++ {
		hdr, _ := s.br.Peek(maxSkipEntry)
		n, maxDocDelta, bound, byteLen, hlen := skipEntryAt(hdr, 0, kind)
		if hlen == 0 {
			return nil, fmt.Errorf("block %d: truncated or malformed skip entry", b)
		}
		s.br.Discard(hlen)
		s.off += int64(hlen)
		wantN := min(remaining, blockSize)
		switch {
		case n > blockSize:
			return nil, fmt.Errorf("block %d oversized (%d postings)", b, n)
		case int(n) != wantN:
			return nil, fmt.Errorf("block %d holds %d postings, want %d", b, n, wantN)
		case maxDocDelta > 1<<31:
			return nil, fmt.Errorf("block %d has implausible max doc delta %d", b, maxDocDelta)
		case byteLen > blockSize*32:
			// A block holds at most blockSize postings of at most
			// (2 varints + float64) ≈ 28 bytes each.
			return nil, fmt.Errorf("block %d has implausible byte length %d", b, byteLen)
		}
		remaining -= wantN
		data, err := s.bytes("block", byteLen)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}

		ps, end := kind.decodeRun(s.buf[:0], data, 0, wantN, base, true)
		if end < 0 {
			return nil, fmt.Errorf("block %d: malformed posting %d", b, len(ps))
		}
		if end != len(data) {
			return nil, fmt.Errorf("block %d has %d trailing bytes", b, len(data)-end)
		}
		bm := blockMeta{off: len(l.data), end: len(l.data) + len(data), n: int32(wantN)}
		for j, p := range ps {
			if math.IsNaN(p.dScore) || p.dScore < 0 || p.dScore > 1 {
				return nil, fmt.Errorf("block %d posting %d has dScore %v outside [0,1]", b, j, p.dScore)
			}
			if int64(p.doc) <= prevDoc {
				return nil, fmt.Errorf("doc ids not strictly ascending at block %d posting %d", b, j)
			}
			prevDoc = int64(p.doc)
			cur = seekDoc(docs, cur, p.doc)
			if cur == len(docs) || docs[cur] != p.doc {
				return nil, fmt.Errorf("references unknown doc %d", p.doc)
			}
			cur++
			if w := p.weight(); w > bm.maxW {
				bm.maxW = w
			}
			bm.maxDoc = p.doc
		}
		if want := base + DocID(maxDocDelta); bm.maxDoc != want {
			return nil, fmt.Errorf("block %d declares max doc %d, postings end at %d", b, want, bm.maxDoc)
		}
		if bm.maxW != bound {
			return nil, fmt.Errorf("block %d declares bound %g, postings max %g", b, bound, bm.maxW)
		}
		if bm.maxW > l.maxW {
			l.maxW = bm.maxW
		}
		if b == 0 {
			l.data = data // a fresh buffer; most lists are one block
		} else {
			l.data = append(l.data, data...)
		}
		l.blocks = append(l.blocks, bm)
		base = bm.maxDoc
	}
	return l, nil
}

// seekDoc returns the least i >= from with docs[i] >= d (len(docs) if
// none). It gallops forward from the cursor and bisects the last
// stride, so the cost follows the gap between a list's consecutive
// postings, not the size of the segment.
func seekDoc(docs []DocID, from int, d DocID) int {
	if from >= len(docs) || docs[from] >= d {
		return from
	}
	lo, step := from, 1 // docs[lo] < d
	for lo+step < len(docs) && docs[lo+step] < d {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(docs)) // docs[hi] >= d, or hi is the end
	for lo+1 < hi {
		if m := int(uint(lo+hi) >> 1); docs[m] < d {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// ReadIndex deserializes an index previously written with WriteTo,
// refusing anything the format specification at the top of codec.go
// rules out.
func ReadIndex(r io.Reader) (*Index, error) {
	ix := New()
	docs, err := scanIndex(r, func(k listKey, l *postingList, _, _ int64) { ix.lists[k] = l })
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	for _, d := range docs {
		ix.docs[d] = struct{}{}
	}
	return ix, nil
}

// countWriter tracks bytes written and the first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func writeUvarint(w *countWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}
