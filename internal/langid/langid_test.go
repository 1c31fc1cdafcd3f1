package langid

import (
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
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

// mapClassifier is the string- and map-based Cavnar–Trenkle classifier
// the packed one replaced, kept whole as its oracle: n-grams are
// substrings counted in a map, ranked by a sort whose comparator looks
// both counts up, and every language is scored on its own against its
// own rank map.
type mapClassifier struct {
	ranks map[Lang]map[string]int
}

func newMapClassifier(samples map[Lang]string) *mapClassifier {
	c := &mapClassifier{ranks: make(map[Lang]map[string]int, len(samples))}
	for lang, text := range samples {
		rank := make(map[string]int)
		for i, g := range rankNGrams(ngramFreqs(text), profileSize) {
			rank[g] = i
		}
		c.ranks[lang] = rank
	}
	return c
}

var defaultMapClassifier = newMapClassifier(trainingSamples)

func mapIdentify(text string) Lang { return defaultMapClassifier.identify(text) }

func (c *mapClassifier) identify(text string) Lang {
	grams := ngramFreqs(text)
	if len(grams) == 0 {
		return Unknown
	}
	letters := 0
	for _, r := range text {
		if unicode.IsLetter(r) {
			letters++
		}
	}
	if letters < 8 {
		return Unknown
	}
	doc := rankNGrams(grams, profileSize)

	best, bestDist := Unknown, int(^uint(0)>>1)
	// Iterate deterministically for stable tie-breaking.
	langs := make([]Lang, 0, len(c.ranks))
	for lang := range c.ranks {
		langs = append(langs, lang)
	}
	sort.Slice(langs, func(i, j int) bool { return langs[i] < langs[j] })
	for _, lang := range langs {
		d := outOfPlace(doc, c.ranks[lang])
		if d < bestDist {
			best, bestDist = lang, d
		}
	}
	return best
}

// outOfPlace computes the Cavnar-Trenkle out-of-place distance between
// a ranked document profile and a language rank map.
func outOfPlace(doc []string, langRank map[string]int) int {
	const missingPenalty = profileSize
	dist := 0
	for i, g := range doc {
		if j, ok := langRank[g]; ok {
			if i > j {
				dist += i - j
			} else {
				dist += j - i
			}
		} else {
			dist += missingPenalty
		}
	}
	return dist
}

// ngramFreqs extracts 1..maxN character n-grams from the
// letters-only, lowercased form of text, each word padded with one
// space on either side, counting them as substrings of the padded
// text.
func ngramFreqs(text string) map[string]int {
	padded := normalize(text)
	freqs := make(map[string]int)
	// starts holds the byte offsets of the last runes of the current
	// " word " window, oldest first: where an n-gram ending at the
	// current rune may begin.
	var starts [maxN]int
	have, inWord := 0, false
	for i, r := range padded {
		if r == ' ' && !inWord {
			starts[0], have = i, 1 // the window opens at the space before its word
			continue
		}
		if have == maxN {
			copy(starts[:], starts[1:])
			have--
		}
		starts[have] = i
		have++
		end := i + utf8.RuneLen(r)
		from := starts[:have]
		if r == ' ' {
			from = from[:have-1] // a lone space is not an n-gram
		}
		for _, s := range from {
			freqs[padded[s:end]]++
		}
		if inWord = r != ' '; !inWord {
			starts[0], have = i, 1 // the closing space also opens the next window
		}
	}
	return freqs
}

// normalize lowercases text and turns every non-letter into a space,
// with one more space at either end.
func normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text) + 2)
	b.WriteByte(' ')
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	b.WriteByte(' ')
	return b.String()
}

// rankNGrams orders n-grams by descending frequency (ties broken
// lexicographically for determinism) and keeps the top n.
func rankNGrams(freqs map[string]int, n int) []string {
	grams := make([]string, 0, len(freqs))
	for g := range freqs {
		grams = append(grams, g)
	}
	sort.Slice(grams, func(i, j int) bool {
		if freqs[grams[i]] != freqs[grams[j]] {
			return freqs[grams[i]] > freqs[grams[j]]
		}
		return grams[i] < grams[j]
	})
	if len(grams) > n {
		grams = grams[:n]
	}
	return grams
}

// runeSliceNGramFreqs is the construction ngramFreqs replaced in turn,
// the plainest statement of what an n-gram is: every word padded on
// its own, converted to runes, one string built per n-gram occurrence.
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

// unpack turns a packed n-gram back into its string.
func unpack(key uint64) string {
	var b strings.Builder
	for shift := 2 * runeBits; shift >= 0 && key>>shift&(1<<runeBits-1) != 0; shift -= runeBits {
		b.WriteRune(rune(key >> shift & (1<<runeBits - 1)))
	}
	return b.String()
}

// packedRanking runs the product's counting and ranking on text and
// spells the result out as strings: the ranked profile and every
// distinct n-gram's count.
func packedRanking(text string) ([]string, map[string]int) {
	var s scratch
	top := s.ranked(text)
	ranked := make([]string, len(top))
	for i, g := range top {
		ranked[i] = unpack(g.key)
	}
	freqs := make(map[string]int, len(s.grams))
	for _, g := range s.grams {
		freqs[unpack(g.key)] = g.count
	}
	return ranked, freqs
}

// edgeTexts are the inputs on which lowercasing, letter classes, rune
// widths and invalid bytes are easiest to get wrong.
var edgeTexts = map[string]string{
	"empty":          "",
	"no letters":     " 12 -- 3! ",
	"one letter":     "a",
	"ascii":          "Why is copper a good conductor?  It's the d-band, e.g. 4s1 3d10",
	"accented":       "Où est la bibliothèque? ¿Dónde está el baño? Straße, ÅNGSTRÖM über naïve café",
	"non-Latin":      "Москва — столица России. 東京は日本の首都です 한국어 ελληνικά",
	"mixed width":    "añb 😀 xßy 日z",
	"invalid utf-8":  "ab\xffcd \xc3",
	"case expanding": "İstanbul İİ ǅ",
	"dotted capital": "İİİİ İİİİ ıııı IIII iiii",
	"titlecase":      "ǅǅǅǅ ǅǆǄ ǈǉǇ ǋǌǊ",
	"max rune":       "ab\U0010FFFFcd \U0010FFFF \U000E0041bcdefghij",
	"eight letters":  "a1b2c3d4e5f6g7h8",
	"seven letters":  "a1b2c3d4e5f6g7 88",
}

func TestNGramFreqsMatchesRuneSliceConstruction(t *testing.T) {
	texts := maps.Clone(edgeTexts)
	for lang, sample := range trainingSamples {
		texts["sample "+string(lang)] = sample
	}
	for name, text := range texts {
		want := runeSliceNGramFreqs(text)
		if got := ngramFreqs(text); !maps.Equal(got, want) {
			t.Errorf("%s: substring n-gram frequencies differ from the rune-slice construction:\n got %v\nwant %v", name, got, want)
		}
		if _, got := packedRanking(text); !maps.Equal(got, want) {
			t.Errorf("%s: packed n-gram frequencies differ from the rune-slice construction:\n got %v\nwant %v", name, got, want)
		}
	}
}

// checkAgainstOracle fails when the packed classifier and the map
// oracle disagree on text, in the verdict or in the ranked document
// profile behind it.
func checkAgainstOracle(t *testing.T, text string) {
	t.Helper()
	if got, want := Identify(text), mapIdentify(text); got != want {
		t.Errorf("Identify(%q) = %v, map oracle says %v", text, got, want)
	}
	got, _ := packedRanking(text)
	if want := rankNGrams(ngramFreqs(text), profileSize); !equalStrings(got, want) {
		t.Errorf("ranked profile of %q differs from the map oracle:\n got %q\nwant %q", text, got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIdentifyMatchesMapOracleOnEdgeCases(t *testing.T) {
	for _, text := range edgeTexts {
		checkAgainstOracle(t, text)
		// Long enough to pass the letter threshold, and mixed with a
		// language the profiles know.
		checkAgainstOracle(t, strings.Repeat(text+" ", 4)+"the people of the town")
	}
}

// Windows this short sit on the decision boundary: a handful of
// n-grams, most counts tied, several languages within a few ranks of
// each other — where a wrong tie-break or rank shows.
func TestIdentifyMatchesMapOracleOnSampleWindows(t *testing.T) {
	for _, sample := range trainingSamples {
		for _, width := range []int{9, 23, 60} {
			for i := 0; i+width <= len(sample); i++ {
				checkAgainstOracle(t, sample[i:i+width])
			}
		}
	}
}

// randomText draws a string over everything the classifier
// distinguishes: letters of both cases, accents, case-mapping oddities,
// CJK, digits, punctuation, spaces and bytes that are not UTF-8.
func randomText(r *rand.Rand) string {
	alphabet := []string{
		"a", "e", "t", "n", "s", "d", "h", "o", "i", "r", "T", "E", "Q", "z", "ij",
		"é", "ñ", "ü", "ß", "ç", "ã", "Ö", "È", "İ", "ı", "ǅ", "ǆ", "Σ", "ς",
		"日", "本", "한", "ж", "Я",
		"0", "7", " ", " ", " ", "\n", "-", "'", ".", "!", "😀",
		"\xff", "\xc3", "\xe6\x97",
	}
	var b strings.Builder
	for n := r.Intn(120); n > 0; n-- {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

func TestIdentifyMatchesMapOracleOnRandomStrings(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		checkAgainstOracle(t, randomText(r))
	}
}

func TestCustomClassifierMatchesMapOracle(t *testing.T) {
	samples := map[Lang]string{
		"zz": trainingSamples[Dutch],
		"aa": trainingSamples[German],
		"mm": trainingSamples[German], // an exact tie: the smaller label must win
		"":   "x",
	}
	c, oracle := NewClassifier(samples), newMapClassifier(samples)
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		text := randomText(r)
		if got, want := c.Identify(text), oracle.identify(text); got != want {
			t.Fatalf("custom Identify(%q) = %q, map oracle says %q", text, got, want)
		}
	}
	if got := NewClassifier(nil).Identify("no languages to choose from"); got != Unknown {
		t.Errorf("empty classifier Identify = %v, want und", got)
	}
}

// FuzzIdentify is the differential test with the fuzzer choosing the
// inputs.
func FuzzIdentify(f *testing.F) {
	for _, text := range edgeTexts {
		f.Add(text)
	}
	f.Add("Just finished 30min freestyle training at the swimming pool")
	f.Add("oggi sono andato in piscina e ho fatto mezzora di allenamento")
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstOracle(t, text)
	})
}

// A long text grows the scratch past what the pool keeps; the next
// call must still start clean.
func TestIdentifyAfterLongText(t *testing.T) {
	var b strings.Builder
	r := rand.New(rand.NewSource(23))
	for b.Len() < 200_000 {
		b.WriteString(randomText(r))
	}
	checkAgainstOracle(t, b.String())
	checkAgainstOracle(t, "the people of the town wake up and go to work")
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func TestIdentifyDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	texts := []string{
		"Just finished 30min freestyle training at the swimming pool with my friends",
		"la partita di calcio di ieri sera è stata davvero bellissima e molto combattuta",
		"ok",
		trainingSamples[English],
	}
	for _, text := range texts {
		Identify(text) // warm the pooled scratch to this text's size
		if n := testing.AllocsPerRun(100, func() { Identify(text) }); n != 0 {
			t.Errorf("Identify(%.30q…) allocates %v times per call, want 0", text, n)
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
