package analysis

import (
	"reflect"
	"testing"
	"unicode/utf8"

	"expertfind/internal/annotator"
	"expertfind/internal/kb"
	"expertfind/internal/langid"
	"expertfind/internal/textproc"
)

// needSeeds are FuzzAnalyzeNeed's in-code seeds: realistic queries,
// markup, URLs, mixed scripts, control bytes and invalid UTF-8.
var needSeeds = []string{
	"",
	" ",
	"Which PHP function can I use in order to obtain the length of a string?",
	"Can you list some restaurants in Milan?",
	"php php php PHP pHp",
	"<b>bold</b> &amp; <a href=\"http://example.com/x?y=1\">link</a>",
	"check out http://example.com/page and https://other.example/path#frag",
	"¿Dónde puedo encontrar un buen restaurante en Madrid?",
	"九份有什麼好吃的小吃嗎",
	"naïve café déjà-vu résumé",
	"a\x00b\x01c",
	"\xff\xfe invalid utf8 \x80\x81",
	"    \t\n\r\n   ",
	"!!!???...,,,;;;:::",
	"🎸🎹 who plays keyboards in a rock band? 🥁",
	"The THE the tHe ThE",
}

// threePassNeed builds a need's Analyzed the way the pipeline did
// before it tokenized once: language identification, the term counter
// and the annotator each read the raw text on their own, and the term
// filter is spelled out step by step. It is the reference AnalyzeNeed
// must reproduce exactly.
func threePassNeed(ann *annotator.Annotator, need string) Analyzed {
	a := Analyzed{
		Lang:     langid.Identify(need),
		Terms:    make(map[string]int),
		Entities: make(map[kb.EntityID]EntityStats),
	}
	for _, tok := range textproc.Tokenize(textproc.Sanitize(need)) {
		if n := len([]rune(tok)); n < 2 || n > 40 {
			continue
		}
		if textproc.IsStopword(tok) {
			continue
		}
		if tok = textproc.Stem(tok); tok == "" {
			continue
		}
		a.Terms[tok]++
		a.Length++
	}
	for _, an := range ann.Annotate(need) {
		st := a.Entities[an.Entity.ID]
		st.Freq++
		if an.DScore > st.DScore {
			st.DScore = an.DScore
		}
		a.Entities[an.Entity.ID] = st
	}
	return a
}

// FuzzAnalyzeNeed feeds arbitrary byte strings through the full need
// analysis flow — language identification, text processing, entity
// annotation — and checks the structural invariants every Analyzed
// must satisfy, and that the result equals the three-pass reference.
// The seed corpus under testdata/fuzz adds to needSeeds.
func FuzzAnalyzeNeed(f *testing.F) {
	for _, s := range needSeeds {
		f.Add(s)
	}

	ann := annotator.New(kb.Builtin(), annotator.Options{})
	pipe := New(Options{Annotator: ann})
	f.Fuzz(func(t *testing.T, need string) {
		a := pipe.AnalyzeNeed(need)

		// Length is the sum of term frequencies, always.
		sum := 0
		for term, n := range a.Terms {
			if term == "" {
				t.Errorf("empty term in Terms map for %q", need)
			}
			if n <= 0 {
				t.Errorf("term %q has non-positive frequency %d", term, n)
			}
			if !utf8.ValidString(term) {
				t.Errorf("term %q is not valid UTF-8 (input %q)", term, need)
			}
			sum += n
		}
		if sum != a.Length {
			t.Errorf("Length = %d, want Σtf = %d for %q", a.Length, sum, need)
		}

		for id, st := range a.Entities {
			if st.Freq <= 0 {
				t.Errorf("entity %v has non-positive frequency %d", id, st.Freq)
			}
			if st.DScore < 0 || st.DScore > 1 {
				t.Errorf("entity %v dScore %v outside [0,1]", id, st.DScore)
			}
		}

		if want := threePassNeed(ann, need); !reflect.DeepEqual(a, want) {
			t.Errorf("AnalyzeNeed(%q) differs from the three-pass reference:\n got %+v\nwant %+v", need, a, want)
		}

		// Analysis must be deterministic: the same need yields the
		// same vectors.
		if b := pipe.AnalyzeNeed(need); !reflect.DeepEqual(a, b) {
			t.Errorf("AnalyzeNeed not deterministic for %q:\n first %+v\nsecond %+v", need, a, b)
		}
	})
}
