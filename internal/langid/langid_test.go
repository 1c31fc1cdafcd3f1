package langid

import (
	"maps"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestIdentifyEnglish(t *testing.T) {
	texts := []string{
		"Michael Phelps is the best! Great freestyle gold medal",
		"Just finished 30min freestyle training at the swimming pool",
		"Which PHP function can I use in order to obtain the length of a string?",
		"Can you list some restaurants in Milan?",
		"Why is copper a good conductor of electricity and heat in general?",
		"I am looking for a graphic card to play this game but I don't want to spend too much",
	}
	for _, s := range texts {
		if got := Identify(s); got != English {
			t.Errorf("Identify(%q) = %v, want en", s, got)
		}
	}
}

func TestIdentifyItalian(t *testing.T) {
	texts := []string{
		"oggi sono andato in piscina e ho fatto mezzora di allenamento di stile libero",
		"qualcuno conosce dei buoni ristoranti a milano vicino al duomo per stasera",
		"la partita di calcio di ieri sera è stata davvero bellissima e molto combattuta",
	}
	for _, s := range texts {
		if got := Identify(s); got != Italian {
			t.Errorf("Identify(%q) = %v, want it", s, got)
		}
	}
}

func TestIdentifyOtherLanguages(t *testing.T) {
	tests := []struct {
		text string
		want Lang
	}{
		{"la semana pasada fuimos a la playa con los niños y comimos pescado fresco", Spanish},
		{"hier soir nous sommes allés au restaurant avec nos amis et c'était très bien", French},
		{"gestern abend waren wir mit unseren freunden im restaurant und es war sehr schön", German},
		{"ontem à noite fomos ao restaurante com os nossos amigos e foi muito bom", Portuguese},
		{"gisteravond zijn we met onze vrienden naar het restaurant geweest en het was erg leuk", Dutch},
	}
	for _, tc := range tests {
		if got := Identify(tc.text); got != tc.want {
			t.Errorf("Identify(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestIdentifyShortTextUnknown(t *testing.T) {
	for _, s := range []string{"", "ok", "123 456", "a b", "!!!"} {
		if got := Identify(s); got != Unknown {
			t.Errorf("Identify(%q) = %v, want und", s, got)
		}
	}
}

func TestIsEnglish(t *testing.T) {
	if !IsEnglish("the weather today is wonderful and we should go outside for a walk") {
		t.Error("IsEnglish(english text) = false")
	}
	if IsEnglish("il tempo oggi è meraviglioso e dovremmo uscire a fare una passeggiata") {
		t.Error("IsEnglish(italian text) = true")
	}
}

func TestClassifierDeterminism(t *testing.T) {
	text := "the people of the town wake up and go to work in the morning"
	first := Identify(text)
	for i := 0; i < 5; i++ {
		if got := Identify(text); got != first {
			t.Fatalf("Identify not deterministic: %v then %v", first, got)
		}
	}
}

// Property: Identify never panics and returns a known label.
func TestIdentifyArbitraryInput(t *testing.T) {
	known := map[Lang]bool{English: true, Italian: true, Spanish: true, French: true, German: true, Portuguese: true, Dutch: true, Unknown: true}
	f := func(s string) bool {
		return known[Identify(s)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewClassifierCustomProfiles(t *testing.T) {
	c := NewClassifier(map[Lang]string{
		"aa": "aaaa aaaa aaaa aaaa aaaa",
		"bb": "bbbb bbbb bbbb bbbb bbbb",
	})
	if got := c.Identify("aaaa aaaa aaa"); got != "aa" {
		t.Errorf("Identify = %v, want aa", got)
	}
	if got := c.Identify("bbb bbbb bbbb"); got != "bb" {
		t.Errorf("Identify = %v, want bb", got)
	}
}

// runeSliceNGramFreqs is the construction ngramFreqs replaced, kept as
// its reference: every word padded on its own, converted to runes, one
// string built per n-gram occurrence.
func runeSliceNGramFreqs(text string) map[string]int {
	letters := strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) {
			return r
		}
		return ' '
	}, strings.ToLower(text))
	freqs := make(map[string]int)
	for _, word := range strings.Fields(letters) {
		runes := []rune(" " + word + " ")
		for n := 1; n <= maxN; n++ {
			for i := 0; i+n <= len(runes); i++ {
				if g := string(runes[i : i+n]); g != " " {
					freqs[g]++
				}
			}
		}
	}
	return freqs
}

func TestNGramFreqsMatchesRuneSliceConstruction(t *testing.T) {
	texts := map[string]string{
		"empty":          "",
		"no letters":     " 12 -- 3! ",
		"one letter":     "a",
		"ascii":          "Why is copper a good conductor?  It's the d-band, e.g. 4s1 3d10",
		"accented":       "Où est la bibliothèque? ¿Dónde está el baño? Straße, ÅNGSTRÖM über naïve café",
		"non-Latin":      "Москва — столица России. 東京は日本の首都です 한국어 ελληνικά",
		"mixed width":    "añb 😀 xßy 日z",
		"invalid utf-8":  "ab\xffcd \xc3",
		"case expanding": "İstanbul İİ ǅ",
	}
	for lang, sample := range trainingSamples {
		texts["sample "+string(lang)] = sample
	}
	for name, text := range texts {
		got, want := ngramFreqs(text), runeSliceNGramFreqs(text)
		if !maps.Equal(got, want) {
			t.Errorf("%s: n-gram frequencies differ from the rune-slice construction:\n got %v\nwant %v", name, got, want)
		}
	}
}

func BenchmarkIdentify(b *testing.B) {
	text := "Just finished 30min freestyle training at the swimming pool with my friends"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Identify(text)
	}
}
