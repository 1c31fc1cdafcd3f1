package textproc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Canonical pairs from Porter's reference vocabulary (voc.txt /
// output.txt of the reference implementation).
var porterPairs = []struct{ in, want string }{
	// step 1a
	{"caresses", "caress"},
	{"ponies", "poni"},
	{"ties", "ti"},
	{"caress", "caress"},
	{"cats", "cat"},
	// step 1b
	{"feed", "feed"},
	{"agreed", "agre"},
	{"plastered", "plaster"},
	{"bled", "bled"},
	{"motoring", "motor"},
	{"sing", "sing"},
	{"conflated", "conflat"},
	{"troubled", "troubl"},
	{"sized", "size"},
	{"hopping", "hop"},
	{"tanned", "tan"},
	{"falling", "fall"},
	{"hissing", "hiss"},
	{"fizzed", "fizz"},
	{"failing", "fail"},
	{"filing", "file"},
	// step 1c
	{"happy", "happi"},
	{"sky", "sky"},
	// step 2
	{"relational", "relat"},
	{"conditional", "condit"},
	{"rational", "ration"},
	{"valenci", "valenc"},
	{"hesitanci", "hesit"},
	{"digitizer", "digit"},
	{"radically", "radic"},
	{"differently", "differ"},
	{"vileli", "vile"},
	{"analogousli", "analog"},
	{"vietnamization", "vietnam"},
	{"predication", "predic"},
	{"operator", "oper"},
	{"feudalism", "feudal"},
	{"decisiveness", "decis"},
	{"hopefulness", "hope"},
	{"callousness", "callous"},
	{"formaliti", "formal"},
	{"sensitiviti", "sensit"},
	{"sensibiliti", "sensibl"},
	// step 3
	{"triplicate", "triplic"},
	{"formative", "form"},
	{"formalize", "formal"},
	{"electriciti", "electr"},
	{"electrical", "electr"},
	{"hopeful", "hope"},
	{"goodness", "good"},
	// step 4
	{"revival", "reviv"},
	{"allowance", "allow"},
	{"inference", "infer"},
	{"airliner", "airlin"},
	{"gyroscopic", "gyroscop"},
	{"adjustable", "adjust"},
	{"defensible", "defens"},
	{"irritant", "irrit"},
	{"replacement", "replac"},
	{"adjustment", "adjust"},
	{"dependent", "depend"},
	{"adoption", "adopt"},
	{"communism", "commun"},
	{"activate", "activ"},
	{"angulariti", "angular"},
	{"homologous", "homolog"},
	{"effective", "effect"},
	{"bowdlerize", "bowdler"},
	// step 5
	{"probate", "probat"},
	{"rate", "rate"},
	{"cease", "ceas"},
	{"controlling", "control"},
	{"rolling", "roll"},
	// general vocabulary
	{"computers", "comput"},
	{"computing", "comput"},
	{"computation", "comput"},
	{"swimmers", "swimmer"},
	{"swimming", "swim"},
	{"engineering", "engin"},
	{"engineers", "engin"},
	{"programmers", "programm"},
	{"programming", "program"},
	{"musical", "music"},
	{"musicians", "musician"},
	{"locations", "locat"},
	{"scientists", "scientist"},
	{"technologies", "technolog"},
	{"restaurants", "restaur"},
	{"conductivity", "conduct"},
}

func TestStemVocabulary(t *testing.T) {
	for _, p := range porterPairs {
		if got := Stem(p.in); got != p.want {
			t.Errorf("Stem(%q) = %q, want %q", p.in, got, p.want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	for _, w := range []string{"", "a", "at", "go", "c3po", "naïve", "42", "php5", "r2d2"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemMergesInflections(t *testing.T) {
	groups := [][]string{
		{"swimming", "swims"},
		{"training", "trains", "trained"},
		{"conductor", "conductors"},
		{"restaurants", "restaurant"},
		{"playing", "played", "plays"},
	}
	for _, g := range groups {
		first := Stem(g[0])
		for _, w := range g[1:] {
			if got := Stem(w); got != first {
				t.Errorf("Stem(%q) = %q, want %q (same stem as %q)", w, got, first, g[0])
			}
		}
	}
}

// Property: stemming never grows a word and stays lowercase ASCII for
// lowercase ASCII input.
func TestStemProperties(t *testing.T) {
	gen := func(r *rand.Rand) string {
		n := 1 + r.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('a' + r.Intn(26)))
		}
		return b.String()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			w := gen(r)
			s := Stem(w)
			if len(s) > len(w) || len(s) == 0 {
				t.Logf("word %q stem %q", w, s)
				return false
			}
			for j := 0; j < len(s); j++ {
				if s[j] < 'a' || s[j] > 'z' {
					t.Logf("word %q stem %q has non-alpha", w, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Stem never panics on arbitrary strings.
func TestStemArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		_ = Stem(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStemPrefixAllocatesNothing: a stem that is a prefix of its word
// (here "swim" of "swimming") is worked out in a stack buffer and
// returned as a slice of the word.
func TestStemPrefixAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { sink = Stem("swimming") }); got != 0 {
		t.Errorf("Stem(\"swimming\") allocates %v times, want 0", got)
	}
}

var sink string

func BenchmarkStem(b *testing.B) {
	words := []string{"computational", "swimming", "relational", "engineering", "conductivity"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}
