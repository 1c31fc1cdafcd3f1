package textproctest

import (
	"reflect"
	"testing"
)

// TestStem pins the reference stemmer to pairs from Porter's own
// vocabulary, at least one for every step of the algorithm.
func TestStem(t *testing.T) {
	for _, p := range []struct{ in, want string }{
		{"caresses", "caress"}, {"ponies", "poni"}, {"cats", "cat"},
		{"agreed", "agre"}, {"plastered", "plaster"}, {"motoring", "motor"},
		{"conflated", "conflat"}, {"troubled", "troubl"}, {"sized", "size"},
		{"hopping", "hop"}, {"falling", "fall"}, {"filing", "file"},
		{"happy", "happi"}, {"relational", "relat"}, {"conditional", "condit"},
		{"valenci", "valenc"}, {"digitizer", "digit"}, {"radically", "radic"},
		{"differently", "differ"}, {"vileli", "vile"}, {"analogousli", "analog"},
		{"vietnamization", "vietnam"}, {"operator", "oper"}, {"feudalism", "feudal"},
		{"decisiveness", "decis"}, {"hopefulness", "hope"}, {"callousness", "callous"},
		{"formaliti", "formal"}, {"sensitiviti", "sensit"}, {"sensibiliti", "sensibl"},
		{"triplicate", "triplic"}, {"formative", "form"}, {"formalize", "formal"},
		{"electriciti", "electr"}, {"electrical", "electr"}, {"hopeful", "hope"},
		{"goodness", "good"}, {"revival", "reviv"}, {"allowance", "allow"},
		{"inference", "infer"}, {"airliner", "airlin"}, {"gyroscopic", "gyroscop"},
		{"adjustable", "adjust"}, {"defensible", "defens"}, {"irritant", "irrit"},
		{"replacement", "replac"}, {"dependent", "depend"}, {"adoption", "adopt"},
		{"communism", "commun"}, {"activate", "activ"}, {"angulariti", "angular"},
		{"homologous", "homolog"}, {"effective", "effect"}, {"bowdlerize", "bowdler"},
		{"probate", "probat"}, {"cease", "ceas"}, {"controlling", "control"},
		{"go", "go"}, {"c3po", "c3po"}, {"naïve", "naïve"},
	} {
		if got := Stem(p.in); got != p.want {
			t.Errorf("Stem(%q) = %q, want %q", p.in, got, p.want)
		}
	}
}

func TestSanitizeAndTokenize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"Hello World", "hello world"},
		{"check http://example.com/page now", "check   now"},
		{"hi @alice #tag", "hi    tag"},
		{"<b>bold</b> fish &amp; chips a&b", " bold  fish   chips a&b"},
		{"ctrl\x01char", "ctrl char"},
		{"<unclosed", ""},
	} {
		if got := Sanitize(tc.in); got != tc.want {
			t.Errorf("Sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got, want := Tokenize("don't stop, naïve 42"), []string{"don", "t", "stop", "naïve", "42"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %q, want %q", got, want)
	}
}
