package index

import (
	"fmt"
	"os"
	"slices"
)

// SegmentReader is a read-only view of one sealed on-disk segment: a
// v3 codec file whose posting lists are fetched from disk (or an mmap
// window) only when a query plans them, never resident all at once.
// Opening a segment runs the one full sequential validation pass
// (scanIndex, the same ReadIndex runs) but retains only the
// dictionary — per-list file offsets, counts, maxima and ordinals —
// the sorted document id set, and where every fwdStride-th forward
// entry starts. After a successful open the file is trusted (the
// codec targets trusted local storage); a file mutated underneath an
// open reader panics rather than serving silently wrong postings.
type SegmentReader struct {
	path string
	size int64
	src  sectionSource

	docs  []DocID // ascending
	lists map[listKey]segList
	fwd   []int64 // scanIndex's forward entry offsets
}

// segList is one dictionary entry: where a list body (starting at its
// postings-count uvarint) lives in the file, the stats the store folds
// into global query planning without touching the disk, and the
// entry's ordinal, the name forward entries use for it.
type segList struct {
	off   int64
	end   int64
	maxW  float64
	count int32
	ord   uint32
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

// OpenSegment opens and fully validates a sealed segment file (the
// blocked v3 format). forceStream disables mmap in favor of positioned
// reads.
func OpenSegment(path string, forceStream bool) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sr := &SegmentReader{path: path, size: st.Size(), lists: make(map[listKey]segList)}
	// The scan consumes the file offset; the file is addressed
	// positionally afterwards.
	sr.docs, sr.fwd, err = scanIndex(f, func(k listKey, l *postingList, off, end int64) {
		sr.lists[k] = segList{off: off, end: end, maxW: l.maxW, count: int32(l.count), ord: uint32(len(sr.lists))}
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("index: segment %s: %w", path, err)
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
func (sr *SegmentReader) Has(id DocID) bool { return hasID(sr.docs, id) }

func (sr *SegmentReader) docIDs() []DocID { return sr.docs }

func (sr *SegmentReader) keys() []listKey {
	out := make([]listKey, 0, len(sr.lists))
	for k := range sr.lists {
		out = append(out, k)
	}
	return out
}

// freq returns the segment-local document frequency of a dimension.
func (sr *SegmentReader) freq(k listKey) int { return int(sr.lists[k].count) }

// eachOrd calls fn with the ordinal of every list holding id, which the
// segment must hold, ascending: id's forward entry.
func (sr *SegmentReader) eachOrd(id DocID, fn func(ord uint32)) {
	i, ok := slices.BinarySearch(sr.docs, id)
	if !ok {
		panic(fmt.Sprintf("index: segment %s does not hold doc %d", sr.path, id))
	}
	j := i / fwdStride
	raw := sr.src.section(sr.fwd[j], sr.fwd[j+1]-sr.fwd[j])
	pos := 0
	for skip := i % fwdStride; ; skip-- {
		n, m := uvarintAt(raw, pos)
		if m == 0 || n > uint64(len(raw)-pos-m) {
			segCorrupt(sr.path, "forward entry length")
		}
		pos += m
		if skip > 0 {
			pos += int(n)
			continue
		}
		ord := uint32(0)
		for end := pos + int(n); pos < end; {
			v, m := uvarintAt(raw, pos)
			if m == 0 {
				segCorrupt(sr.path, "forward entry")
			}
			pos += m
			ord += uint32(v)
			fn(ord)
		}
		return
	}
}

// segCorrupt reports post-open structural damage. The open pass proved
// the file well-formed, so reaching this means the file changed under
// the reader — there is no correct answer to serve.
func segCorrupt(path, what string) {
	panic(fmt.Sprintf("index: segment %s corrupted after open (%s)", path, what))
}

// list binds one posting list as the file holds it (listSource): data
// is the list body itself — on the mmap source the mapping, no copy —
// and the skip entries, parsed from the stored per-block headers onto
// the end of arena, say where in it each block's postings lie. On the
// mmap source a warm arena makes binding allocation-free.
func (sr *SegmentReader) list(k listKey, l *postingList, arena []blockMeta) []blockMeta {
	ref, ok := sr.lists[k]
	if !ok {
		*l = postingList{}
		return arena
	}
	raw := sr.src.section(ref.off, ref.end-ref.off)
	count, m1 := uvarintAt(raw, 0)
	nBlocks, m2 := uvarintAt(raw, m1)
	if m1 == 0 || m2 == 0 || count != uint64(ref.count) {
		segCorrupt(sr.path, "list header")
	}
	pos := m1 + m2
	start := len(arena)
	base := DocID(0)
	for b := uint64(0); b < nBlocks; b++ {
		n, maxDocDelta, bound, byteLen, p := skipEntryAt(raw, pos, k.kind)
		if p == 0 || byteLen > uint64(len(raw)-p) {
			segCorrupt(sr.path, "block past list end")
		}
		pos = p + int(byteLen)
		base += DocID(maxDocDelta)
		arena = append(arena, blockMeta{off: p, end: pos, n: int32(n), maxDoc: base, maxW: bound})
	}
	if pos != len(raw) {
		segCorrupt(sr.path, "trailing bytes in list")
	}
	*l = postingList{kind: k.kind, data: raw, blocks: arena[start:len(arena):len(arena)], count: int(ref.count), maxW: ref.maxW}
	return arena
}
