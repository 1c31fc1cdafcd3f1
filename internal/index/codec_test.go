package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// randomIndex builds an index with random synthetic documents.
func randomIndex(seed int64, nDocs int) *Index {
	r := rand.New(rand.NewSource(seed))
	vocab := []string{"swim", "pool", "php", "copper", "milan", "guitar", "game", "match", "train", "code", "wave", "atom"}
	ix := New()
	for i := 0; i < nDocs; i++ {
		terms := map[string]int{}
		for j := 0; j < 1+r.Intn(10); j++ {
			terms[vocab[r.Intn(len(vocab))]]++
		}
		ents := map[kb.EntityID]analysis.EntityStats{}
		for j := 0; j < r.Intn(4); j++ {
			ents[kb.EntityID(r.Intn(50))] = analysis.EntityStats{
				Freq:   1 + r.Intn(3),
				DScore: r.Float64(),
			}
		}
		// Non-contiguous doc ids exercise the delta coding.
		ix.Add(Doc{ID: DocID(i*3 + r.Intn(2)), A: analysis.Analyzed{Terms: terms, Entities: ents}})
	}
	return ix
}

func assertIndexesEqual(t *testing.T, a, b *Index) {
	t.Helper()
	if a.NumDocs() != b.NumDocs() {
		t.Fatalf("doc counts: %d vs %d", a.NumDocs(), b.NumDocs())
	}
	if len(a.lists) != len(b.lists) {
		t.Fatalf("list counts: %d vs %d", len(a.lists), len(b.lists))
	}
	for k, la := range a.lists {
		lb := b.lists[k]
		if lb == nil || la.count != lb.count {
			t.Fatalf("%v postings: %d vs %v", k, la.count, lb)
		}
		sa, sb := la.decodeAll(), lb.decodeAll()
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%v posting %d: %+v vs %+v", k, i, sa[i], sb[i])
			}
		}
		if la.maxW != lb.maxW {
			t.Fatalf("%v maxW: %g vs %g", k, la.maxW, lb.maxW)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ix := randomIndex(1, 200)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEqual(t, ix, got)
}

func TestCodecRoundTripPreservesScoring(t *testing.T) {
	ix := randomIndex(2, 500)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	need := analysis.Analyzed{
		Terms:    map[string]int{"swim": 2, "pool": 1, "code": 1},
		Entities: map[kb.EntityID]analysis.EntityStats{3: {Freq: 1, DScore: 1}},
	}
	a := ix.Score(need, 0.6)
	b := got.Score(need, 0.6)
	if len(a) != len(b) {
		t.Fatalf("score lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			t.Fatalf("score %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCodecEmptyIndex(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", got.NumDocs())
	}
}

func TestCodecDeterministicOutput(t *testing.T) {
	ix := randomIndex(3, 100)
	var a, b bytes.Buffer
	if _, err := ix.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := ReadIndex(strings.NewReader("NOPE plus junk")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadIndex(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	ix := randomIndex(4, 50)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Any strict prefix must fail to decode (never silently succeed
	// with fewer postings). Check a spread of cut points past the
	// header.
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		cut := int(frac * float64(len(full)))
		if cut < 5 {
			continue
		}
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// Property: random byte corruption never panics; it either fails or
// (rarely, when it hits a value byte) yields a structurally valid
// index.
func TestCodecCorruptionNeverPanics(t *testing.T) {
	ix := randomIndex(5, 80)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	f := func(pos uint16, val byte) bool {
		corrupted := append([]byte(nil), full...)
		corrupted[int(pos)%len(corrupted)] = val
		_, _ = ReadIndex(bytes.NewReader(corrupted)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsInvalidDScore(t *testing.T) {
	// Hand-craft an entity posting with dScore > 1 by writing a valid
	// index and patching the float bytes.
	ix := New()
	ix.Add(Doc{ID: 1, A: analysis.Analyzed{
		Terms:    map[string]int{"x": 1},
		Entities: map[kb.EntityID]analysis.EntityStats{7: {Freq: 1, DScore: 0.5}},
	}})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The final 8 bytes are the dScore of the single entity posting.
	for i := len(data) - 8; i < len(data); i++ {
		data[i] = 0xFF // NaN pattern
	}
	if _, err := readBoth(t, data); err == nil {
		t.Error("NaN dScore accepted")
	}
}

// rawWriter hand-encodes segment bytes field by field, so tests can
// produce headers and layouts the real writer never emits.
type rawWriter struct{ buf bytes.Buffer }

func (w *rawWriter) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	w.buf.Write(b[:binary.PutUvarint(b[:], v)])
}

func (w *rawWriter) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf.Write(b[:])
}

// v3Segment hand-encodes a minimal version-3 segment so individual
// fields can be corrupted precisely. The base layout is two docs
// {5, 9}, one term "a" (ordinal 0) with postings (5, tf 2), (9, tf 1),
// one entity 3 (ordinal 1) with posting (5, ef 1, dScore 0.5), and the
// forward entries doc 5 → {0, 1}, doc 9 → {0}; mutate tweaks one field
// before encoding.
type v3Segment struct {
	nBlocksTerm   uint64 // block count declared for the term list
	termCount     uint64 // postings count declared for the term list
	blockN        uint64 // posting count declared for the term block
	maxDocDelta   uint64 // declared block max doc (delta from base 0)
	declMaxTF     uint64 // declared term block bound
	byteLen       *int   // override the term block's byte length
	firstDocDelta uint64 // first term posting's doc delta
	secondDelta   uint64 // second term posting's doc delta (0 = regression)
	entMaxW       float64
	entDScore     float64
	trailingByte  bool       // append a stray byte inside the term block
	fwd           [][]uint64 // per doc, the forward entry's varints
	fwdLen        []*int     // per doc, override the entry's byte length
	trailingFwd   bool       // append a stray byte after the forward section
}

func defaultV3() v3Segment {
	return v3Segment{
		nBlocksTerm: 1, termCount: 2, blockN: 2, maxDocDelta: 9, declMaxTF: 2,
		firstDocDelta: 5, secondDelta: 4, entMaxW: 1.5, entDScore: 0.5,
		fwd: [][]uint64{{0, 1}, {0}}, fwdLen: []*int{nil, nil},
	}
}

func (s v3Segment) encode() []byte {
	w := &rawWriter{}
	w.buf.WriteString(codecMagic)
	w.uvarint(3)
	w.uvarint(2) // two docs: 5, 9
	w.uvarint(5)
	w.uvarint(4)

	w.uvarint(1) // one term
	w.uvarint(1)
	w.buf.WriteString("a")
	w.uvarint(s.termCount)
	w.uvarint(s.nBlocksTerm)
	w.uvarint(s.blockN)
	w.uvarint(s.maxDocDelta)
	w.uvarint(s.declMaxTF)
	var block rawWriter
	block.uvarint(s.firstDocDelta)
	block.uvarint(2) // tf
	block.uvarint(s.secondDelta)
	block.uvarint(1) // tf
	if s.trailingByte {
		block.buf.WriteByte(0)
	}
	bl := block.buf.Len()
	if s.byteLen != nil {
		bl = *s.byteLen
	}
	w.uvarint(uint64(bl))
	w.buf.Write(block.buf.Bytes())

	w.uvarint(1) // one entity
	w.uvarint(3)
	w.uvarint(1) // count
	w.uvarint(1) // blocks
	w.uvarint(1) // block n
	w.uvarint(5) // maxDocDelta
	w.f64(s.entMaxW)
	var eb rawWriter
	eb.uvarint(5) // doc delta
	eb.uvarint(1) // ef
	eb.f64(s.entDScore)
	w.uvarint(uint64(eb.buf.Len()))
	w.buf.Write(eb.buf.Bytes())

	for i, ords := range s.fwd {
		var entry rawWriter
		for _, v := range ords {
			entry.uvarint(v)
		}
		n := entry.buf.Len()
		if s.fwdLen[i] != nil {
			n = *s.fwdLen[i]
		}
		w.uvarint(uint64(n))
		w.buf.Write(entry.buf.Bytes())
	}
	if s.trailingFwd {
		w.buf.WriteByte(0)
	}
	return w.buf.Bytes()
}

// TestCodecV3RejectsCorruptFields corrupts each load-bearing field of
// a valid v3 segment in turn; both entry points of the reader
// (readBoth) must reject every variant. Skip entries feed pruning
// proofs, and forward entries feed df corrections, so a segment whose
// declared bounds disagree with its postings, or whose forward entries
// disagree with its lists, must never load.
func TestCodecV3RejectsCorruptFields(t *testing.T) {
	if _, err := readBoth(t, defaultV3().encode()); err != nil {
		t.Fatalf("baseline v3 segment must load: %v", err)
	}
	one, three, nine := 1, 3, 9
	huge := blockSize * 33
	cases := []struct {
		name    string
		mutate  func(*v3Segment)
		wantErr string
	}{
		{"wrong block count", func(s *v3Segment) { s.nBlocksTerm = 2 }, "blocks for"},
		{"count above docs", func(s *v3Segment) { s.termCount = 3 }, "postings for"},
		{"oversized block", func(s *v3Segment) { s.blockN = blockSize + 1 }, "oversized"},
		{"short block", func(s *v3Segment) { s.blockN = 1 }, "want"},
		{"wrong max doc", func(s *v3Segment) { s.maxDocDelta = 8 }, "declares max doc"},
		{"implausible max doc", func(s *v3Segment) { s.maxDocDelta = 1 << 33 }, "implausible max doc"},
		{"wrong bound", func(s *v3Segment) { s.declMaxTF = 1 }, "declares bound"},
		{"trailing bytes", func(s *v3Segment) { s.trailingByte = true }, "trailing"},
		{"byte length lies", func(s *v3Segment) { s.byteLen = &three }, "malformed posting 1"},
		{"implausible byte length", func(s *v3Segment) { s.byteLen = &huge }, "implausible byte length"},
		{"doc regression", func(s *v3Segment) { s.secondDelta = 0 }, "strictly ascending"},
		{"unknown doc", func(s *v3Segment) { s.firstDocDelta = 6 }, "unknown doc"},
		{"wrong entity bound", func(s *v3Segment) { s.entMaxW = 2 }, "declares bound"},
		{"entity dScore range", func(s *v3Segment) { s.entDScore = 1.5; s.entMaxW = 2.5 }, "outside [0,1]"},
		{"forward length short", func(s *v3Segment) { s.fwdLen[0] = &one }, "forward entry of doc 5 holds 1 bytes"},
		{"forward length past the section", func(s *v3Segment) { s.fwdLen[1] = &nine }, "forward entry of doc 9 holds 9 bytes"},
		{"forward key missing", func(s *v3Segment) { s.fwd[0] = []uint64{0} }, "forward entry of doc 5 holds 1 bytes"},
		{"forward key extra", func(s *v3Segment) { s.fwd[1] = []uint64{0, 1} }, "forward entry of doc 9 holds 2 bytes"},
		{"forward key wrong", func(s *v3Segment) { s.fwd[1] = []uint64{1} }, "forward entry of doc 9 lists other keys"},
		{"forward ordinal past the dictionary", func(s *v3Segment) { s.fwd[0] = []uint64{0, 2} }, "forward entry of doc 5 lists other keys"},
		{"forward ordinal repeated", func(s *v3Segment) { s.fwd[0] = []uint64{0, 0} }, "forward entry of doc 5 lists other keys"},
		{"forward ordinals swapped", func(s *v3Segment) { s.fwd[0] = []uint64{1, 0} }, "forward entry of doc 5 lists other keys"},
		{"forward entry missing", func(s *v3Segment) { s.fwd, s.fwdLen = s.fwd[:1], s.fwdLen[:1] }, "forward entry of doc 9: reading forward entry length"},
		{"forward section missing", func(s *v3Segment) { s.fwd, s.fwdLen = nil, nil }, "forward entry of doc 5: reading forward entry length"},
		{"trailing bytes after forward", func(s *v3Segment) { s.trailingFwd = true }, "trailing bytes after forward section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := defaultV3()
			s.fwd = [][]uint64{slices.Clone(s.fwd[0]), slices.Clone(s.fwd[1])}
			tc.mutate(&s)
			_, err := readBoth(t, s.encode())
			if err == nil {
				t.Fatalf("corrupted segment (%s) accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCodecStrictOnBothEntryPoints pins the checks only the segment
// opener used to make: ReadIndex loaded each of these files (serving
// from a one-document index that declares two, or silently keeping
// the last of two lists under one key).
func TestCodecStrictOnBothEntryPoints(t *testing.T) {
	var valid bytes.Buffer
	if _, err := randomIndex(8, 30).WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	// header writes magic, version, the docs {5}, and a term count.
	header := func(nTerms uint64) *rawWriter {
		w := &rawWriter{}
		w.buf.WriteString(codecMagic)
		w.uvarint(3)
		w.uvarint(1)
		w.uvarint(5)
		w.uvarint(nTerms)
		return w
	}
	// termA writes the term "a" with the single posting (5, tf 1).
	termA := func(w *rawWriter) {
		w.uvarint(1)
		w.buf.WriteString("a")
		for _, v := range []uint64{1, 1, 1, 5, 1, 2, 5, 1} { // count, blocks, n, maxDoc, bound, byteLen, posting
			w.uvarint(v)
		}
	}
	repeated := header(2)
	termA(repeated)
	termA(repeated)
	repeated.uvarint(0)
	empty := header(1)
	empty.uvarint(1)
	empty.buf.WriteString("a")
	empty.uvarint(0) // count
	empty.uvarint(0) // blocks
	empty.uvarint(0)

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"trailing garbage", append(valid.Bytes(), 0xAB, 0xCD), "trailing bytes after forward section"},
		{"repeated doc", []byte("EFIX\x03\x02\x05\x00\x00\x00"), "duplicate doc 5"},
		{"repeated key", repeated.buf.Bytes(), "out of order"},
		{"empty list", empty.buf.Bytes(), "has no postings"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readBoth(t, tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want rejection mentioning %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestCodecRejectsUnsupportedVersion covers the version gate: only
// the current version loads. Version 1 (the retired flat format),
// version 2 (no forward section) and a future version are all refused
// as unsupported.
func TestCodecRejectsUnsupportedVersion(t *testing.T) {
	for _, version := range []uint64{1, 2, codecVersion + 1} {
		w := &rawWriter{}
		w.buf.WriteString(codecMagic)
		w.uvarint(version)
		w.uvarint(0)
		if _, err := ReadIndex(bytes.NewReader(w.buf.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d segment not rejected: %v", version, err)
		}
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	ix := randomIndex(6, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRead(b *testing.B) {
	ix := randomIndex(7, 2000)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// goldenIndex rebuilds the index the golden files were written from
// (testdata/golden-v2.idx by the last commit with separate term and
// entity list types, golden-v3.idx by the first with a forward
// section): a small random index plus 300 documents sharing one term
// and one entity, so a list of each kind spans three blocks.
func goldenIndex() *Index {
	ix := randomIndex(11, 40)
	for i := 0; i < 300; i++ {
		ix.Add(Doc{ID: DocID(1000 + 2*i), A: analysis.Analyzed{
			Terms:    map[string]int{"golden": 1 + i%5},
			Entities: map[kb.EntityID]analysis.EntityStats{60: {Freq: 1 + i%3, DScore: float64(i%11) / 10}},
		}})
	}
	return ix
}

// readGolden reads a golden file and checks it still has the hash it
// was written with.
func readGolden(t *testing.T, name, wantSum string) []byte {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(golden)); sum != wantSum {
		t.Fatalf("testdata/%s hashes to %s, want %s", name, sum, wantSum)
	}
	return golden
}

// TestGoldenV3File pins the format: the committed file still has the
// hash it was written with, a fresh build of the same index writes it
// byte for byte, and so does re-serializing it through either reader —
// ReadIndex→WriteTo and OpenSegment→single-segment Store.WriteTo.
func TestGoldenV3File(t *testing.T) {
	golden := readGolden(t, "golden-v3.idx", "b4c2211a6e469eb1c5b7ae154cc2370364c5ed02ee44345233ddc5cc7f51c11f")
	check := func(what string, src io.WriterTo) {
		t.Helper()
		var got bytes.Buffer
		if _, err := src.WriteTo(&got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got.Bytes(), golden) {
			t.Fatalf("%s: wrote %d bytes that differ from the golden file's %d", what, got.Len(), len(golden))
		}
	}
	check("fresh build", goldenIndex())

	ix, err := ReadIndex(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []listKey{termKey("golden"), entityKey(60)} {
		if l := ix.lists[k]; l == nil || len(l.blocks) < 3 {
			t.Fatalf("golden %v does not span three blocks", k)
		}
	}
	check("ReadIndex→WriteTo", ix)

	for _, stream := range []bool{false, true} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000000"+segSuffix), golden, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dir, StoreOptions{forceStream: stream})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("OpenSegment(stream=%v)→Store.WriteTo", stream), s)
		s.Close()
	}
}

// TestGoldenV2FileRefused: a version 2 file — the golden one, which
// both readers loaded before the forward section — is now refused by
// ReadIndex and by a store opening it, with a request to rebuild.
func TestGoldenV2FileRefused(t *testing.T) {
	golden := readGolden(t, "golden-v2.idx", "ed9585c361e7a793834ce335a1c6f211f1c334b1d3601c808c40313e83fa6f7f")
	const want = "unsupported version 2 (want 3): rebuild the index"
	if _, err := ReadIndex(bytes.NewReader(golden)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadIndex: want a refusal mentioning %q, got %v", want, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000000"+segSuffix), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := NewStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("NewStore: want a refusal mentioning %q, got %v", want, err)
	}
}
