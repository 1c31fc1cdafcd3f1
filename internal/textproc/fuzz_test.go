package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"expertfind/internal/textproc/textproctest"
)

// FuzzStem checks Stem against the reference stemmer, and that a stem
// that is a prefix of its word is that very prefix, not a copy.
func FuzzStem(f *testing.F) {
	for _, seed := range []string{"", "a", "swimming", "relational", "données", "x1y2", "AAAA", "zzzzzzzzzzzzzzzz", "ponies", "hopping", "conflated"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, word string) {
		s := Stem(word)
		if want := textproctest.Stem(word); s != want {
			t.Fatalf("Stem(%q) = %q, reference %q", word, s, want)
		}
		if s != "" && strings.HasPrefix(word, s) && unsafe.StringData(s) != unsafe.StringData(word) {
			t.Fatalf("Stem(%q) = %q is a prefix of the word but was copied", word, s)
		}
	})
}

// FuzzSanitizeAndTokenize checks Sanitize, Tokenize and the full term
// pipeline against the reference. Stop words are dropped before
// stemming, so a stem may itself be one ("sos" → "so").
func FuzzSanitizeAndTokenize(f *testing.F) {
	seeds := []string{
		"", "<a href=x>link</a>", "http://x.com &amp; more", "@user #tag",
		"plain text", "<<>><<", "&#39;&bogus", "unicode: 日本語 données",
		"MIXED Case HTTP://X.COM www.example.org hello", "ÉCOLE Straße \xff\xfe",
		"KELVIN K sign", "what",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		out := Sanitize(text)
		if want := textproctest.Sanitize(text); out != want {
			t.Fatalf("Sanitize(%q) = %q, reference %q", text, out, want)
		}
		toks := Tokenize(out)
		if want := textproctest.Tokenize(out); !reflect.DeepEqual(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", out, toks, want)
		}
		// Tokenize takes any text, not only sanitized text.
		if got, want := Tokenize(text), textproctest.Tokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		want := []string{}
		for _, tok := range textproctest.Tokenize(textproctest.Sanitize(text)) {
			if n := len([]rune(tok)); n >= MinTokenLen && n <= MaxTokenLen && !IsStopword(tok) {
				want = append(want, textproctest.Stem(tok))
			}
		}
		if got := Default.Terms(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Terms(%q) = %q, reference %q", text, got, want)
		}
	})
}
