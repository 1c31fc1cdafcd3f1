package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSanitize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Hello World", "hello world"},
		{"check http://example.com/page now", "check   now"},
		{"see www.example.com too", "see   too"},
		{"hi @alice how are you", "hi   how are you"},
		{"#freestyle swimming", " freestyle swimming"},
		{"<b>bold</b> text", " bold  text"},
		{"fish &amp; chips", "fish   chips"},
		{"a&b", "a&b"},
		{"tab\tand\nnewline", "tab and newline"},
		{"ctrl\x01char", "ctrl char"},
		{"<unclosed tag", ""},
	}
	for _, tc := range tests {
		if got := Sanitize(tc.in); got != tc.want {
			t.Errorf("Sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"hello world", []string{"hello", "world"}},
		{"don't stop", []string{"don", "t", "stop"}},
		{"php5 and c99", []string{"php5", "and", "c99"}},
		{"", nil},
		{"  --  ", nil},
		{"one,two;three", []string{"one", "two", "three"}},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of", "a"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"swimming", "phelps", "copper", "php"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestProcessorTerms(t *testing.T) {
	got := Default.Terms("Michael Phelps is the best! Great freestyle gold medal")
	want := []string{"michael", "phelp", "best", "great", "freestyl", "gold", "medal"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestProcessorTermsDropsURLsAndMentions(t *testing.T) {
	got := Default.Terms("@bob check https://news.example.com/article about copper conductors")
	want := []string{"check", "copper", "conductor"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

// TestProcessorMinMaxLen pins the token-length filter at its bounds:
// MinTokenLen and MaxTokenLen runes are kept, one fewer and one more
// dropped.
func TestProcessorMinMaxLen(t *testing.T) {
	short, atMin := strings.Repeat("q", MinTokenLen-1), strings.Repeat("q", MinTokenLen)
	atMax, long := strings.Repeat("x", MaxTokenLen), strings.Repeat("x", MaxTokenLen+1)
	got := Default.Terms(short + " " + atMin + " " + atMax + " " + long)
	if want := []string{atMin, atMax}; !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestTermFreq(t *testing.T) {
	text := NewText("swim swim swimming pool")
	tf := Default.TermFreqOf(&text)
	if tf["swim"] != 3 {
		t.Errorf("tf[swim] = %d, want 3 (swimming stems to swim)", tf["swim"])
	}
	if tf["pool"] != 1 {
		t.Errorf("tf[pool] = %d, want 1", tf["pool"])
	}
}

// Property: the pipeline never emits stop words or empty terms and is
// deterministic.
func TestProcessorProperties(t *testing.T) {
	f := func(s string) bool {
		a := Default.Terms(s)
		b := Default.Terms(s)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		for _, term := range a {
			if term == "" || IsStopword(term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sanitized output contains no URLs, tags or mentions.
func TestSanitizeProperties(t *testing.T) {
	f := func(s string) bool {
		out := Sanitize(s)
		return !strings.Contains(out, "http://") &&
			!strings.Contains(out, "https://") &&
			!strings.Contains(out, "<")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProcessorTerms(b *testing.B) {
	text := "Just finished 30min freestyle training at the swimming pool with @charlie, " +
		"see https://pool.example.com/sessions #swimming #training it was great fun indeed"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default.Terms(text)
	}
}
