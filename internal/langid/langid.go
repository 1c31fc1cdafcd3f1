// Package langid implements character n-gram language identification
// (Cavnar & Trenkle, "N-Gram-Based Text Categorization", 1994) for the
// Language Identification step of the analysis pipeline (paper §2.3).
//
// The paper keeps only English resources (230k out of 330k collected);
// this classifier provides the same filtering capability for the
// simulated corpus. Profiles for English, Italian, Spanish, French and
// German are built at init time from embedded sample text.
package langid

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lang identifies a natural language.
type Lang string

// Languages known to the classifier.
const (
	English    Lang = "en"
	Italian    Lang = "it"
	Spanish    Lang = "es"
	French     Lang = "fr"
	German     Lang = "de"
	Portuguese Lang = "pt"
	Dutch      Lang = "nl"
	Unknown    Lang = "und"
)

const (
	profileSize = 400 // n-grams retained per language profile
	maxN        = 3   // n-gram sizes 1..maxN
)

// Classifier identifies the language of short texts.
type Classifier struct {
	profiles map[Lang][]string // ranked n-grams per language
	ranks    map[Lang]map[string]int
}

// defaultClassifier is built once from the embedded samples.
var defaultClassifier = NewClassifier(trainingSamples)

// NewClassifier builds a classifier from per-language sample text.
func NewClassifier(samples map[Lang]string) *Classifier {
	c := &Classifier{
		profiles: make(map[Lang][]string, len(samples)),
		ranks:    make(map[Lang]map[string]int, len(samples)),
	}
	for lang, text := range samples {
		prof := topNGrams(text, profileSize)
		c.profiles[lang] = prof
		rank := make(map[string]int, len(prof))
		for i, g := range prof {
			rank[g] = i
		}
		c.ranks[lang] = rank
	}
	return c
}

// Identify returns the most likely language of text using the default
// embedded profiles. Texts with fewer than 8 letters return Unknown.
func Identify(text string) Lang {
	return defaultClassifier.Identify(text)
}

// IsEnglish reports whether text is classified as English.
func IsEnglish(text string) bool {
	return Identify(text) == English
}

// Identify returns the most likely language of text, or Unknown when
// the text carries too little signal (fewer than 8 letters).
func (c *Classifier) Identify(text string) Lang {
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
// space on either side. Once the whole text is padded every " word "
// is a substring of it, so the n-grams are counted as substrings: the
// map's keys share the padded text, and no n-gram occurrence allocates.
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

func topNGrams(text string, n int) []string {
	return rankNGrams(ngramFreqs(text), n)
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
