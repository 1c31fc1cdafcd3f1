package analysis

import (
	"reflect"
	"testing"
	"unicode/utf8"

	"expertfind/internal/kb"
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

// FuzzAnalyzeNeed feeds arbitrary byte strings through the full need
// analysis flow — text processing and entity annotation — and checks
// the structural invariants every Analyzed must satisfy, and that the
// result equals the three-pass reference construction.
// The seed corpus under testdata/fuzz adds to needSeeds.
func FuzzAnalyzeNeed(f *testing.F) {
	for _, s := range needSeeds {
		f.Add(s)
	}

	ref := newReference(kb.Builtin())
	pipe := New(Options{})
	f.Fuzz(func(t *testing.T, need string) {
		a := pipe.AnalyzeNeed(need)

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
		}

		for id, st := range a.Entities {
			if st.Freq <= 0 {
				t.Errorf("entity %v has non-positive frequency %d", id, st.Freq)
			}
			if st.DScore < 0 || st.DScore > 1 {
				t.Errorf("entity %v dScore %v outside [0,1]", id, st.DScore)
			}
		}

		if want := ref.threePass(need); !reflect.DeepEqual(a, want) {
			t.Errorf("AnalyzeNeed(%q) differs from the three-pass reference:\n got %+v\nwant %+v", need, a, want)
		}

		// Analysis must be deterministic: the same need yields the
		// same vectors.
		if b := pipe.AnalyzeNeed(need); !reflect.DeepEqual(a, b) {
			t.Errorf("AnalyzeNeed not deterministic for %q:\n first %+v\nsecond %+v", need, a, b)
		}
	})
}
