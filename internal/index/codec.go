package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"expertfind/internal/kb"
)

// Binary index segment format. All integers are unsigned varints
// unless noted; posting lists are delta-encoded on ascending DocIDs.
//
// Version 2 serializes the blocked posting layout directly, so a
// loaded segment carries the skip entries the top-k pruner needs
// without re-encoding:
//
//	magic   "EFIX" (4 bytes)
//	version uvarint (2)
//	numDocs uvarint, followed by delta-encoded sorted doc ids
//	numTerms uvarint, then per term (lexicographic):
//	    len(term) uvarint, term bytes,
//	    count uvarint (total postings), nBlocks uvarint, per block:
//	        n uvarint, maxDocDelta uvarint (block maxDoc minus the
//	        previous block's, absolute for the first), maxTF uvarint
//	        (block bound), byteLen uvarint, then the raw block bytes
//	        (per posting: docDelta uvarint, tf uvarint)
//	numEntities uvarint, then per entity (ascending id):
//	    entityID uvarint,
//	    count uvarint, nBlocks uvarint, per block:
//	        n, maxDocDelta, maxW float64 (8 bytes LE, block bound),
//	        byteLen, then the raw block bytes (per posting:
//	        docDelta uvarint, ef uvarint, dScore float64 8 bytes LE)
//	crc not included: the format targets trusted local storage; all
//	structural inconsistencies (truncation, garbage, skip metadata
//	disagreeing with the postings it summarizes) surface as decode
//	errors.
//
// Blocks are canonical — every block holds exactly blockSize postings
// except the last — and the writer re-blocks from fully sorted
// postings, so two indexes over the same documents serialize
// byte-identically regardless of build order or shard layout.

const (
	codecMagic   = "EFIX"
	codecVersion = 2
)

// canonical returns the list in canonical sealed form (no tail,
// blocks re-encoded from fully sorted postings) — the form WriteTo
// serializes. Lists with an empty tail are already canonical.
func (l *termList) canonical() *termList {
	if len(l.tail) == 0 {
		return l
	}
	c := &termList{maxW: l.maxW}
	c.encode(l.sorted())
	return c
}

func (l *entityList) canonical() *entityList {
	if len(l.tailE) == 0 {
		return l
	}
	c := &entityList{maxW: l.maxW}
	c.encode(l.sorted())
	return c
}

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: bufio.NewWriter(w)}

	if _, err := cw.Write([]byte(codecMagic)); err != nil {
		return cw.n, err
	}
	writeUvarint(cw, codecVersion)

	// Documents.
	docs := make([]int64, 0, len(ix.docs))
	for d := range ix.docs {
		docs = append(docs, int64(d))
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	writeUvarint(cw, uint64(len(docs)))
	prev := int64(0)
	for i, d := range docs {
		delta := d
		if i > 0 {
			delta = d - prev
		}
		writeUvarint(cw, uint64(delta))
		prev = d
	}

	// Terms, sorted for determinism.
	terms := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	writeUvarint(cw, uint64(len(terms)))
	for _, t := range terms {
		writeUvarint(cw, uint64(len(t)))
		if _, err := cw.Write([]byte(t)); err != nil {
			return cw.n, err
		}
		if err := writeTermListBody(cw, ix.terms[t].canonical()); err != nil {
			return cw.n, err
		}
	}

	// Entities, sorted by ID.
	ents := make([]int64, 0, len(ix.entities))
	for e := range ix.entities {
		ents = append(ents, int64(e))
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })
	writeUvarint(cw, uint64(len(ents)))
	for _, e := range ents {
		writeUvarint(cw, uint64(e))
		if err := writeEntityListBody(cw, ix.entities[kb.EntityID(e)].canonical()); err != nil {
			return cw.n, err
		}
	}

	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadIndex deserializes an index previously written with WriteTo.
// Any version other than the current blocked format is refused as an
// unsupported version.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic[:]) != codecMagic {
		return nil, fmt.Errorf("index: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading version: %w", err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("index: unsupported version %d", version)
	}

	ix := New()

	nDocs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading doc count: %w", err)
	}
	if nDocs > 1<<31 {
		return nil, fmt.Errorf("index: implausible doc count %d", nDocs)
	}
	prev := int64(0)
	for i := uint64(0); i < nDocs; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading doc %d: %w", i, err)
		}
		d := int64(delta)
		if i > 0 {
			d = prev + int64(delta)
		}
		ix.docs[DocID(d)] = struct{}{}
		prev = d
	}

	return readV2Lists(br, ix, nDocs)
}

// readV2Lists decodes the blocked term and entity sections. Skip
// metadata is load-bearing for pruning correctness, so every declared
// block bound is recomputed from the decoded postings and must match
// exactly.
func readV2Lists(br *bufio.Reader, ix *Index, nDocs uint64) (*Index, error) {
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading term count: %w", err)
	}
	if nTerms > 1<<31 {
		return nil, fmt.Errorf("index: implausible term count %d", nTerms)
	}
	for i := uint64(0); i < nTerms; i++ {
		tlen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d length: %w", i, err)
		}
		if tlen > 1<<16 {
			return nil, fmt.Errorf("index: implausible term length %d", tlen)
		}
		buf := make([]byte, tlen)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("index: reading term %d: %w", i, err)
		}
		l, err := readTermBlocks(br, ix, nDocs, string(buf))
		if err != nil {
			return nil, err
		}
		ix.terms[string(buf)] = l
	}

	nEnts, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading entity count: %w", err)
	}
	if nEnts > 1<<31 {
		return nil, fmt.Errorf("index: implausible entity count %d", nEnts)
	}
	for i := uint64(0); i < nEnts; i++ {
		eid, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading entity %d id: %w", i, err)
		}
		l, err := readEntityBlocks(br, ix, nDocs, eid)
		if err != nil {
			return nil, err
		}
		ix.entities[kb.EntityID(eid)] = l
	}
	return ix, nil
}

// byteScanner is the reader the v2 block decoders consume: buffered
// byte and bulk reads. *bufio.Reader satisfies it; the segment opener
// wraps one to track the logical byte offset of each posting list.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// readListHeader reads and sanity-checks a v2 list's count and block
// count against the canonical blocking invariant.
func readListHeader(br byteScanner, nDocs uint64, what string) (count, nBlocks int, err error) {
	c, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("index: reading postings count of %s: %w", what, err)
	}
	if c > nDocs {
		return 0, 0, fmt.Errorf("index: %s has %d postings for %d docs", what, c, nDocs)
	}
	nb, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("index: reading block count of %s: %w", what, err)
	}
	want := (c + blockSize - 1) / blockSize
	if nb != want {
		return 0, 0, fmt.Errorf("index: %s has %d blocks for %d postings (want %d)", what, nb, c, want)
	}
	return int(c), int(nb), nil
}

func readTermBlocks(br byteScanner, ix *Index, nDocs uint64, term string) (*termList, error) {
	what := fmt.Sprintf("term %q", term)
	count, nBlocks, err := readListHeader(br, nDocs, what)
	if err != nil {
		return nil, err
	}
	l := &termList{count: count}
	remaining := count
	prevDoc := int64(-1)
	base := DocID(0)
	for b := 0; b < nBlocks; b++ {
		n, maxDocDelta, err := readBlockMeta(br, what, b)
		if err != nil {
			return nil, err
		}
		declMaxW, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading block %d bound of %s: %w", b, what, err)
		}
		data, err := readBlockData(br, what, b)
		if err != nil {
			return nil, err
		}
		wantN := blockSize
		if b == nBlocks-1 {
			wantN = remaining
		}
		if n != wantN {
			return nil, fmt.Errorf("index: block %d of %s holds %d postings, want %d", b, what, n, wantN)
		}
		remaining -= n

		// Decode and verify the block against its declared metadata.
		bm := blockMeta{off: len(l.data), n: n}
		pos, cur := 0, base
		for j := 0; j < n; j++ {
			delta, sz := binary.Uvarint(data[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("index: posting %d of block %d of %s: bad doc delta", j, b, what)
			}
			pos += sz
			tf, sz := binary.Uvarint(data[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("index: posting %d of block %d of %s: bad tf", j, b, what)
			}
			pos += sz
			cur += DocID(delta)
			if int64(cur) <= prevDoc {
				return nil, fmt.Errorf("index: %s doc ids not strictly ascending at block %d posting %d", what, b, j)
			}
			prevDoc = int64(cur)
			if _, ok := ix.docs[cur]; !ok {
				return nil, fmt.Errorf("index: %s references unknown doc %d", what, cur)
			}
			if w := float64(tf); w > bm.maxW {
				bm.maxW = w
			}
		}
		if pos != len(data) {
			return nil, fmt.Errorf("index: block %d of %s has %d trailing bytes", b, what, len(data)-pos)
		}
		bm.maxDoc = cur
		if bm.maxDoc != base+DocID(maxDocDelta) {
			return nil, fmt.Errorf("index: block %d of %s declares max doc %d, postings end at %d", b, what, base+DocID(maxDocDelta), bm.maxDoc)
		}
		if bm.maxW != float64(declMaxW) {
			return nil, fmt.Errorf("index: block %d of %s declares bound %d, postings max %g", b, what, declMaxW, bm.maxW)
		}
		if bm.maxW > l.maxW {
			l.maxW = bm.maxW
		}
		l.data = append(l.data, data...)
		l.blocks = append(l.blocks, bm)
		base = bm.maxDoc
	}
	return l, nil
}

func readEntityBlocks(br byteScanner, ix *Index, nDocs uint64, eid uint64) (*entityList, error) {
	what := fmt.Sprintf("entity %d", eid)
	count, nBlocks, err := readListHeader(br, nDocs, what)
	if err != nil {
		return nil, err
	}
	l := &entityList{count: count}
	remaining := count
	prevDoc := int64(-1)
	base := DocID(0)
	var f8 [8]byte
	for b := 0; b < nBlocks; b++ {
		n, maxDocDelta, err := readBlockMeta(br, what, b)
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return nil, fmt.Errorf("index: reading block %d bound of %s: %w", b, what, err)
		}
		declMaxW := math.Float64frombits(binary.LittleEndian.Uint64(f8[:]))
		data, err := readBlockData(br, what, b)
		if err != nil {
			return nil, err
		}
		wantN := blockSize
		if b == nBlocks-1 {
			wantN = remaining
		}
		if n != wantN {
			return nil, fmt.Errorf("index: block %d of %s holds %d postings, want %d", b, what, n, wantN)
		}
		remaining -= n

		bm := blockMeta{off: len(l.data), n: n}
		pos, cur := 0, base
		for j := 0; j < n; j++ {
			delta, sz := binary.Uvarint(data[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("index: posting %d of block %d of %s: bad doc delta", j, b, what)
			}
			pos += sz
			ef, sz := binary.Uvarint(data[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("index: posting %d of block %d of %s: bad ef", j, b, what)
			}
			pos += sz
			if pos+8 > len(data) {
				return nil, fmt.Errorf("index: posting %d of block %d of %s: truncated dScore", j, b, what)
			}
			dScore := float64FromBytes(data[pos:])
			pos += 8
			if math.IsNaN(dScore) || dScore < 0 || dScore > 1 {
				return nil, fmt.Errorf("index: %s posting %d has dScore %v outside [0,1]", what, j, dScore)
			}
			cur += DocID(delta)
			if int64(cur) <= prevDoc {
				return nil, fmt.Errorf("index: %s doc ids not strictly ascending at block %d posting %d", what, b, j)
			}
			prevDoc = int64(cur)
			if _, ok := ix.docs[cur]; !ok {
				return nil, fmt.Errorf("index: %s references unknown doc %d", what, cur)
			}
			if w := entityWeight(entityPosting{doc: cur, ef: int32(ef), dScore: dScore}); w > bm.maxW {
				bm.maxW = w
			}
		}
		if pos != len(data) {
			return nil, fmt.Errorf("index: block %d of %s has %d trailing bytes", b, what, len(data)-pos)
		}
		bm.maxDoc = cur
		if bm.maxDoc != base+DocID(maxDocDelta) {
			return nil, fmt.Errorf("index: block %d of %s declares max doc %d, postings end at %d", b, what, base+DocID(maxDocDelta), bm.maxDoc)
		}
		if bm.maxW != declMaxW {
			return nil, fmt.Errorf("index: block %d of %s declares bound %g, postings max %g", b, what, declMaxW, bm.maxW)
		}
		if bm.maxW > l.maxW {
			l.maxW = bm.maxW
		}
		l.data = append(l.data, data...)
		l.blocks = append(l.blocks, bm)
		base = bm.maxDoc
	}
	return l, nil
}

// readBlockMeta reads the leading (n, maxDocDelta) pair of a block's
// skip entry.
func readBlockMeta(br byteScanner, what string, b int) (n int, maxDocDelta uint64, err error) {
	nn, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("index: reading block %d size of %s: %w", b, what, err)
	}
	if nn > blockSize {
		return 0, 0, fmt.Errorf("index: block %d of %s oversized (%d postings)", b, what, nn)
	}
	maxDocDelta, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("index: reading block %d max doc of %s: %w", b, what, err)
	}
	if maxDocDelta > 1<<31 {
		return 0, 0, fmt.Errorf("index: block %d of %s has implausible max doc delta %d", b, what, maxDocDelta)
	}
	return int(nn), maxDocDelta, nil
}

// readBlockData reads a block's declared byte length and payload.
func readBlockData(br byteScanner, what string, b int) ([]byte, error) {
	byteLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading block %d byte length of %s: %w", b, what, err)
	}
	// A block holds at most blockSize postings of at most
	// (2 varints + float64) ≈ 28 bytes each.
	if byteLen > blockSize*32 {
		return nil, fmt.Errorf("index: block %d of %s has implausible byte length %d", b, what, byteLen)
	}
	data := make([]byte, byteLen)
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, fmt.Errorf("index: reading block %d of %s: %w", b, what, err)
	}
	return data, nil
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
