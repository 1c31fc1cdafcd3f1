package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// SegmentReader is a read-only view of one sealed on-disk segment: a
// v2 codec file whose posting lists are fetched from disk (or an mmap
// window) only when a query plans them, never resident all at once.
// Opening a segment runs one full sequential validation pass — every
// posting is decoded and checked against its skip metadata exactly
// like ReadIndex does — but retains only the dictionary: per-list file
// offsets, counts and maxima, plus the sorted document id set. After a
// successful open the file is trusted (the codec targets trusted local
// storage); a file mutated underneath an open reader panics rather
// than serving silently wrong postings.
type SegmentReader struct {
	path string
	size int64
	src  sectionSource

	docs  []DocID // ascending
	terms map[string]segList
	names []string // lexicographic
	ents  map[kb.EntityID]segList
	eids  []int64 // ascending
}

// segList is one dictionary entry: where a list body (starting at its
// postings-count uvarint) lives in the file, and the stats the store
// folds into global query planning without touching the disk.
type segList struct {
	off   int64
	end   int64
	count int
	maxW  float64
}

// sectionSource serves byte ranges of a sealed segment file. The
// returned slice is valid until the source is closed and must not be
// written to (the mmap implementation returns the mapping itself).
type sectionSource interface {
	section(off, n int64) []byte
	Close() error
}

// preadSource reads sections with positioned reads — the streaming
// fallback when mmap is unavailable or disabled.
type preadSource struct {
	f *os.File
}

func (s *preadSource) section(off, n int64) []byte {
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		panic(fmt.Sprintf("index: segment %s: read %d bytes at %d: %v", s.f.Name(), n, off, err))
	}
	return buf
}

func (s *preadSource) Close() error { return s.f.Close() }

// posReader tracks the logical byte offset of a buffered reader so the
// opener can record where each posting list body starts and ends.
type posReader struct {
	br  *bufio.Reader
	off int64
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.off++
	}
	return b, err
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.br.Read(b)
	p.off += int64(n)
	return n, err
}

// OpenSegment opens and fully validates a sealed segment file (the
// blocked v2 format). forceStream disables mmap in favor of positioned
// reads.
func OpenSegment(path string, forceStream bool) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr, err := scanSegment(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if !forceStream {
		if src, err := newMmapSource(f, sr.size); err == nil {
			sr.src = src
			return sr, nil
		}
	}
	sr.src = &preadSource{f: f}
	return sr, nil
}

// scanSegment runs the sequential validation pass over f and builds
// the dictionary. The file offset is consumed; callers address the
// file positionally afterwards.
func scanSegment(f *os.File, path string) (*SegmentReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	pr := &posReader{br: bufio.NewReaderSize(f, 1<<20)}

	var magic [4]byte
	if _, err := io.ReadFull(pr, magic[:]); err != nil {
		return nil, fmt.Errorf("index: segment %s: reading magic: %w", path, err)
	}
	if string(magic[:]) != codecMagic {
		return nil, fmt.Errorf("index: segment %s: bad magic %q", path, magic)
	}
	version, err := binary.ReadUvarint(pr)
	if err != nil {
		return nil, fmt.Errorf("index: segment %s: reading version: %w", path, err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("index: segment %s: version %d is not a sealed segment (want %d)", path, version, codecVersion)
	}

	// Documents. The transient Index supplies the known-doc set the
	// shared block validators check postings against.
	ix := New()
	nDocs, err := binary.ReadUvarint(pr)
	if err != nil {
		return nil, fmt.Errorf("index: segment %s: reading doc count: %w", path, err)
	}
	if nDocs > 1<<31 {
		return nil, fmt.Errorf("index: segment %s: implausible doc count %d", path, nDocs)
	}
	sr := &SegmentReader{
		path:  path,
		size:  st.Size(),
		docs:  make([]DocID, 0, nDocs),
		terms: make(map[string]segList),
		ents:  make(map[kb.EntityID]segList),
	}
	prev := int64(0)
	for i := uint64(0); i < nDocs; i++ {
		delta, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: reading doc %d: %w", path, i, err)
		}
		d := int64(delta)
		if i > 0 {
			d = prev + int64(delta)
			if delta == 0 {
				return nil, fmt.Errorf("index: segment %s: duplicate doc %d", path, d)
			}
		}
		ix.docs[DocID(d)] = struct{}{}
		sr.docs = append(sr.docs, DocID(d))
		prev = d
	}

	// Terms: validate each list in full, keep only the dictionary.
	nTerms, err := binary.ReadUvarint(pr)
	if err != nil {
		return nil, fmt.Errorf("index: segment %s: reading term count: %w", path, err)
	}
	if nTerms > 1<<31 {
		return nil, fmt.Errorf("index: segment %s: implausible term count %d", path, nTerms)
	}
	sr.names = make([]string, 0, nTerms)
	prevName := ""
	for i := uint64(0); i < nTerms; i++ {
		tlen, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: reading term %d length: %w", path, i, err)
		}
		if tlen > 1<<16 {
			return nil, fmt.Errorf("index: segment %s: implausible term length %d", path, tlen)
		}
		buf := make([]byte, tlen)
		if _, err := io.ReadFull(pr, buf); err != nil {
			return nil, fmt.Errorf("index: segment %s: reading term %d: %w", path, i, err)
		}
		name := string(buf)
		if i > 0 && name <= prevName {
			return nil, fmt.Errorf("index: segment %s: term %q out of order", path, name)
		}
		prevName = name
		off := pr.off
		l, err := readTermBlocks(pr, ix, nDocs, name)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: %w", path, err)
		}
		if l.count == 0 {
			return nil, fmt.Errorf("index: segment %s: term %q has no postings", path, name)
		}
		sr.terms[name] = segList{off: off, end: pr.off, count: l.count, maxW: l.maxW}
		sr.names = append(sr.names, name)
	}

	// Entities.
	nEnts, err := binary.ReadUvarint(pr)
	if err != nil {
		return nil, fmt.Errorf("index: segment %s: reading entity count: %w", path, err)
	}
	if nEnts > 1<<31 {
		return nil, fmt.Errorf("index: segment %s: implausible entity count %d", path, nEnts)
	}
	sr.eids = make([]int64, 0, nEnts)
	prevID := int64(-1)
	for i := uint64(0); i < nEnts; i++ {
		eid, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: reading entity %d id: %w", path, i, err)
		}
		if int64(eid) <= prevID {
			return nil, fmt.Errorf("index: segment %s: entity %d out of order", path, eid)
		}
		prevID = int64(eid)
		off := pr.off
		l, err := readEntityBlocks(pr, ix, nDocs, eid)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: %w", path, err)
		}
		if l.count == 0 {
			return nil, fmt.Errorf("index: segment %s: entity %d has no postings", path, eid)
		}
		sr.ents[kb.EntityID(eid)] = segList{off: off, end: pr.off, count: l.count, maxW: l.maxW}
		sr.eids = append(sr.eids, int64(eid))
	}

	if _, err := pr.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("index: segment %s: trailing bytes after entity section", path)
	}
	return sr, nil
}

// Close releases the underlying file (and mapping, if any).
func (sr *SegmentReader) Close() error { return sr.src.Close() }

// Path returns the segment's file path.
func (sr *SegmentReader) Path() string { return sr.path }

// Size returns the segment file's size in bytes.
func (sr *SegmentReader) Size() int64 { return sr.size }

// NumDocs returns the number of documents in the segment, including
// any the owning store has tombstoned.
func (sr *SegmentReader) NumDocs() int { return len(sr.docs) }

// Has reports whether the segment holds id (tombstoned or not).
func (sr *SegmentReader) Has(id DocID) bool {
	i := sort.Search(len(sr.docs), func(i int) bool { return sr.docs[i] >= id })
	return i < len(sr.docs) && sr.docs[i] == id
}

// docFreq returns the segment-local document frequency of a term.
func (sr *SegmentReader) docFreq(t string) int { return sr.terms[t].count }

// entityFreq returns the segment-local document frequency of an entity.
func (sr *SegmentReader) entityFreq(e kb.EntityID) int { return sr.ents[e].count }

// segCorrupt reports post-open structural damage. The open pass proved
// the file well-formed, so reaching this means the file changed under
// the reader — there is no correct answer to serve.
func segCorrupt(path, what string) {
	panic(fmt.Sprintf("index: segment %s corrupted after open (%s)", path, what))
}

func (sr *SegmentReader) uvarint(raw []byte, pos int) (uint64, int) {
	if pos >= len(raw) {
		segCorrupt(sr.path, "truncated varint")
	}
	v, n := binary.Uvarint(raw[pos:])
	if n <= 0 {
		segCorrupt(sr.path, "bad varint")
	}
	return v, pos + n
}

// loadTermList materializes one term's posting list from the file:
// block payloads are copied into a contiguous buffer and the skip
// entries rebuilt from the stored per-block headers. Returns nil when
// the segment has no postings for the term.
func (sr *SegmentReader) loadTermList(t string) *termList {
	ref, ok := sr.terms[t]
	if !ok {
		return nil
	}
	raw := sr.src.section(ref.off, ref.end-ref.off)
	count, pos := sr.uvarint(raw, 0)
	nBlocks, pos := sr.uvarint(raw, pos)
	l := &termList{count: int(count), maxW: ref.maxW}
	l.blocks = make([]blockMeta, 0, nBlocks)
	l.data = make([]byte, 0, len(raw)-pos)
	base := DocID(0)
	for b := uint64(0); b < nBlocks; b++ {
		n, p := sr.uvarint(raw, pos)
		maxDocDelta, p := sr.uvarint(raw, p)
		maxW, p := sr.uvarint(raw, p)
		byteLen, p := sr.uvarint(raw, p)
		if p+int(byteLen) > len(raw) {
			segCorrupt(sr.path, "block payload past list end")
		}
		bm := blockMeta{off: len(l.data), n: int(n), maxDoc: base + DocID(maxDocDelta), maxW: float64(maxW)}
		l.data = append(l.data, raw[p:p+int(byteLen)]...)
		pos = p + int(byteLen)
		base = bm.maxDoc
		l.blocks = append(l.blocks, bm)
	}
	if pos != len(raw) {
		segCorrupt(sr.path, "trailing bytes in term list")
	}
	return l
}

// loadEntityList is loadTermList for an entity list (float64 block
// bounds).
func (sr *SegmentReader) loadEntityList(e kb.EntityID) *entityList {
	ref, ok := sr.ents[e]
	if !ok {
		return nil
	}
	raw := sr.src.section(ref.off, ref.end-ref.off)
	count, pos := sr.uvarint(raw, 0)
	nBlocks, pos := sr.uvarint(raw, pos)
	l := &entityList{count: int(count), maxW: ref.maxW}
	l.blocks = make([]blockMeta, 0, nBlocks)
	l.data = make([]byte, 0, len(raw)-pos)
	base := DocID(0)
	for b := uint64(0); b < nBlocks; b++ {
		n, p := sr.uvarint(raw, pos)
		maxDocDelta, p := sr.uvarint(raw, p)
		if p+8 > len(raw) {
			segCorrupt(sr.path, "truncated block bound")
		}
		maxW := float64FromBytes(raw[p:])
		p += 8
		byteLen, p := sr.uvarint(raw, p)
		if p+int(byteLen) > len(raw) {
			segCorrupt(sr.path, "block payload past list end")
		}
		bm := blockMeta{off: len(l.data), n: int(n), maxDoc: base + DocID(maxDocDelta), maxW: maxW}
		l.data = append(l.data, raw[p:p+int(byteLen)]...)
		pos = p + int(byteLen)
		base = bm.maxDoc
		l.blocks = append(l.blocks, bm)
	}
	if pos != len(raw) {
		segCorrupt(sr.path, "trailing bytes in entity list")
	}
	return l
}

// planView materializes exactly the lists a query plan touches into an
// ephemeral Index. The scorer (scorePlanTopK) reads only the term and
// entity maps, so scoring this view runs the identical
// accumulation code — and produces bit-identical contributions — as an
// in-memory index holding the same postings.
func (sr *SegmentReader) planView(plan queryPlan) *Index {
	v := &Index{
		terms:    make(map[string]*termList, len(plan.terms)),
		entities: make(map[kb.EntityID]*entityList, len(plan.entities)),
	}
	for _, pt := range plan.terms {
		if l := sr.loadTermList(pt.term); l != nil {
			v.terms[pt.term] = l
		}
	}
	for _, pe := range plan.entities {
		if l := sr.loadEntityList(pe.e); l != nil {
			v.entities[pe.e] = l
		}
	}
	return v
}

// segmentMergeSource adapts a segment (minus its tombstoned documents)
// to the streaming merge writer.
type segmentMergeSource struct {
	r    *SegmentReader
	drop map[DocID]analysis.Analyzed
}

func (s segmentMergeSource) dropped(d DocID) bool {
	_, ok := s.drop[d]
	return ok
}

func (s segmentMergeSource) liveDocs() []int64 {
	out := make([]int64, 0, len(s.r.docs))
	for _, d := range s.r.docs {
		if !s.dropped(d) {
			out = append(out, int64(d))
		}
	}
	return out
}

func (s segmentMergeSource) termNames() []string { return s.r.names }

func (s segmentMergeSource) termPostings(t string) []termPosting {
	l := s.r.loadTermList(t)
	if l == nil {
		return nil
	}
	ps := l.decodeAll() // sealed lists decode in ascending doc order
	if len(s.drop) == 0 {
		return ps
	}
	kept := ps[:0]
	for _, p := range ps {
		if !s.dropped(p.doc) {
			kept = append(kept, p)
		}
	}
	return kept
}

func (s segmentMergeSource) entityIDs() []int64 { return s.r.eids }

func (s segmentMergeSource) entityPostings(e kb.EntityID) []entityPosting {
	l := s.r.loadEntityList(e)
	if l == nil {
		return nil
	}
	ps := l.decodeAll()
	if len(s.drop) == 0 {
		return ps
	}
	kept := ps[:0]
	for _, p := range ps {
		if !s.dropped(p.doc) {
			kept = append(kept, p)
		}
	}
	return kept
}
