// Package langid implements character n-gram language identification
// (Cavnar & Trenkle, "N-Gram-Based Text Categorization", 1994) for the
// Language Identification step of the analysis pipeline (paper §2.3).
//
// The paper keeps only English resources (230k out of 330k collected);
// this classifier provides the same filtering capability for the
// simulated corpus. Profiles for English, Italian, Spanish, French,
// German, Portuguese and Dutch are built at init time from embedded
// sample text.
//
// An n-gram is never a string here: its one to three runes are packed
// into a uint64, counted in an open-addressed table kept on a free
// list, and ranked by bucketing the keys by count and sorting only the
// buckets of the profileSize most frequent, the last of them only as
// far as it ranks; every language is scored in one pass against a
// merged rank table, so Identify allocates nothing. The string- and map-based construction this replaced is
// the oracle in langid_test.go.
package langid

import (
	"math"
	"math/bits"
	"slices"
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
	minLetters  = 8   // texts with fewer letters carry too little signal

	// A rune needs 21 bits, so maxN of them fit one uint64. They are
	// packed left-aligned — first rune in the top bits, absent runes
	// zero — which makes integer order on keys the lexicographic order
	// on the n-grams they stand for (a zero rune never occurs: it is
	// not a letter).
	runeBits = 21
	pad      = uint64(' ') // the padding rune on either side of a word

	// noRank marks, in the merged rank table, an n-gram absent from
	// one language's profile.
	noRank = math.MaxUint16

	// minSlots is the table size a scratch starts every text with
	// (enough for a tweet's ~250 distinct n-grams at half load);
	// maxPooledGrams bounds what a scratch may keep when it returns to
	// the free list, so one long page does not pin its buffers for
	// good.
	minSlots       = 1 << 10
	maxPooledGrams = 1 << 12
)

// gram is a distinct n-gram of a text, packed, with its occurrence
// count.
type gram struct {
	key   uint64
	count int
}

// gramTable is an open-addressed hash table from packed n-gram to a
// small index. A packed n-gram is never zero, so a zero key marks an
// empty slot. The length is a power of two.
type gramTable []gramSlot

type gramSlot struct {
	key uint64
	val int32
}

// find returns the slot holding key, or the empty slot where it
// belongs. The table is never full.
func (t gramTable) find(key uint64) *gramSlot {
	// Fibonacci hashing: the product's top bits depend on every bit
	// of the key, which matters because short n-grams are all zeros
	// at the low end and Latin ones nearly so at the high end.
	i := key * 0x9E3779B97F4A7C15 >> (64 - bits.TrailingZeros(uint(len(t))))
	for t[i].key != 0 && t[i].key != key {
		i = (i + 1) & uint64(len(t)-1)
	}
	return &t[i]
}

// scratch is the working memory of one Identify call.
type scratch struct {
	table gramTable // key → index into grams
	grams []gram
	// at is indexed by occurrence count: first how many grams occur
	// that often, then where that count's bucket of keys lies.
	at   []int
	keys []uint64 // the ranked keys
	dist []int    // out-of-place distance per language
}

// scratchFree is the free list of released scratches. It keeps at
// most eight, as the index's accumulator free list does; a kept one
// holds at most maxPooledGrams n-grams, so idle scratches pin about
// 3 MiB at most. Not a sync.Pool, for the accumulators' reason: a pool
// empties with the garbage collector's cycles and keeps one slot per
// P, so a caller moved between Ps would regrow its table at times
// nothing in the program chooses.
var scratchFree = make(chan *scratch, 8)

// newScratch takes a released scratch, or a fresh one when every kept
// one is in use.
func newScratch() *scratch {
	select {
	case s := <-scratchFree:
		return s
	default:
		return new(scratch)
	}
}

// release puts the scratch on the free list. One that a long text grew
// past maxPooledGrams, or one that finds the list full, is dropped.
func (s *scratch) release() {
	if cap(s.grams) > maxPooledGrams || cap(s.at) > maxPooledGrams {
		return
	}
	select {
	case scratchFree <- s:
	default:
	}
}

// add counts one occurrence of the n-gram key.
func (s *scratch) add(key uint64) {
	slot := s.table.find(key)
	if slot.key == key {
		s.grams[slot.val].count++
		return
	}
	if 2*(len(s.grams)+1) > len(s.table) {
		s.resize(2 * len(s.table))
		slot = s.table.find(key)
	}
	*slot = gramSlot{key: key, val: int32(len(s.grams))}
	s.grams = append(s.grams, gram{key: key, count: 1})
}

// resize empties the table at the given size and re-enters the grams
// counted so far.
func (s *scratch) resize(slots int) {
	if cap(s.table) < slots {
		s.table = make(gramTable, slots)
	} else {
		s.table = s.table[:slots]
		clear(s.table)
	}
	for i, g := range s.grams {
		*s.table.find(g.key) = gramSlot{key: g.key, val: int32(i)}
	}
}

// count fills s.grams with the distinct 1..maxN character n-grams of
// the letters-only, lowercased form of text, every word padded with
// one space on either side (a lone space is not an n-gram).
func (s *scratch) count(text string) {
	s.grams = s.grams[:0]
	s.resize(minSlots)
	// p2 and p1 are the two runes before the current one inside the
	// " word " window; zero when the window is not that long yet.
	var p2, p1 uint64
	inWord := false
	for _, r := range text {
		if r < utf8.RuneSelf {
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
			if r < 'a' || r > 'z' {
				r = ' '
			}
		} else if r = unicode.ToLower(r); !unicode.IsLetter(r) {
			r = ' '
		}
		if r == ' ' {
			if inWord {
				s.closeWord(p2, p1)
				inWord = false
			}
			continue
		}
		if !inWord {
			p2, p1, inWord = 0, pad, true
		}
		c := uint64(r)
		s.add(c << (2 * runeBits))
		s.add(p1<<(2*runeBits) | c<<runeBits)
		if p2 != 0 {
			s.add(p2<<(2*runeBits) | p1<<runeBits | c)
		}
		p2, p1 = p1, c
	}
	if inWord {
		s.closeWord(p2, p1)
	}
}

// closeWord counts the n-grams ending in the space that closes a word
// whose last two window runes are p2 and p1.
func (s *scratch) closeWord(p2, p1 uint64) {
	s.add(p1<<(2*runeBits) | pad<<runeBits)
	s.add(p2<<(2*runeBits) | p1<<runeBits | pad)
}

// ranked returns the keys of the profileSize most frequent n-grams of
// text, most frequent first, ties in lexicographic order. The result
// aliases the scratch.
func (s *scratch) ranked(text string) []uint64 {
	s.count(text)
	return s.rank()
}

// rank ranks the counted grams. It sorts no gram: it buckets the keys
// by count, from the highest count down until profileSize are placed,
// and sorts each bucket's keys — of the bucket that crosses
// profileSize, only the smallest keys that still rank.
func (s *scratch) rank() []uint64 {
	top := 0
	for _, g := range s.grams {
		top = max(top, g.count)
	}
	s.at = zeroed(s.at, top+1)
	for _, g := range s.grams {
		s.at[g.count]++
	}
	// From the highest count down, turn each bucket's size into its
	// offset; low is the least count whose bucket is placed.
	n, low := 0, top+1
	for n < profileSize && low > 1 {
		low--
		size := s.at[low]
		s.at[low] = n
		n += size
	}
	s.keys = zeroed(s.keys, n)
	for _, g := range s.grams {
		if g.count >= low {
			s.keys[s.at[g.count]] = g.key
			s.at[g.count]++
		}
	}
	// Each offset has advanced to its bucket's end, the next lower
	// count's start.
	start := 0
	for c := top; c >= low; c-- {
		bucket := s.keys[start:s.at[c]]
		if need := profileSize - start; len(bucket) > need {
			selectSmallest(bucket, need)
			bucket = bucket[:need]
		}
		slices.Sort(bucket)
		start = s.at[c]
	}
	return s.keys[:min(n, profileSize)]
}

// selectSmallest reorders distinct keys so that the k smallest come
// first, in no particular order (quickselect, 0 < k < len(keys)).
// Everything before lo is smaller than everything from lo on, and
// everything from hi on larger than everything before hi.
func selectSmallest(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	for hi-lo > 1 {
		// The median of the first, middle and last key is the pivot;
		// it goes last while the rest is partitioned around it.
		m := lo + (hi-lo)/2
		if keys[m] < keys[lo] {
			keys[m], keys[lo] = keys[lo], keys[m]
		}
		if keys[hi-1] < keys[lo] {
			keys[hi-1], keys[lo] = keys[lo], keys[hi-1]
		}
		if keys[hi-1] < keys[m] {
			keys[hi-1], keys[m] = keys[m], keys[hi-1]
		}
		keys[m], keys[hi-1] = keys[hi-1], keys[m]
		pivot, p := keys[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if keys[i] < pivot {
				keys[i], keys[p] = keys[p], keys[i]
				p++
			}
		}
		keys[p], keys[hi-1] = keys[hi-1], keys[p]
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// zeroed returns b resized to n zeros, reusing its array when it is
// large enough.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Classifier identifies the language of short texts.
type Classifier struct {
	langs []Lang // ascending: the order in which ties resolve
	// table maps every n-gram of any language's profile to its row of
	// ranks: ranks[row*len(langs)+l] is the n-gram's rank in the
	// profile of langs[l], or noRank.
	table gramTable
	ranks []uint16
}

// defaultClassifier is built once from the embedded samples.
var defaultClassifier = NewClassifier(trainingSamples)

// NewClassifier builds a classifier from per-language sample text.
func NewClassifier(samples map[Lang]string) *Classifier {
	c := &Classifier{langs: make([]Lang, 0, len(samples))}
	for lang := range samples {
		c.langs = append(c.langs, lang)
	}
	slices.Sort(c.langs)

	slots := minSlots
	for slots < 2*profileSize*len(c.langs) {
		slots *= 2
	}
	c.table = make(gramTable, slots)
	var s scratch
	rows := 0
	for l, lang := range c.langs {
		for rank, key := range s.ranked(samples[lang]) {
			slot := c.table.find(key)
			if slot.key == 0 {
				*slot = gramSlot{key: key, val: int32(rows)}
				rows++
				for range c.langs {
					c.ranks = append(c.ranks, noRank)
				}
			}
			c.ranks[int(slot.val)*len(c.langs)+l] = uint16(rank)
		}
	}
	return c
}

// Identify returns the most likely language of text using the default
// embedded profiles. Texts with fewer than 8 letters return Unknown.
func Identify(text string) Lang {
	return defaultClassifier.Identify(text)
}

// Identify returns the most likely language of text, or Unknown when
// the text carries too little signal (fewer than 8 letters).
func (c *Classifier) Identify(text string) Lang {
	letters := 0
	for _, r := range text {
		if unicode.IsLetter(r) {
			if letters++; letters == minLetters {
				break
			}
		}
	}
	if letters < minLetters {
		return Unknown
	}

	s := newScratch()
	n := len(c.langs)
	s.dist = zeroed(s.dist, n)
	// The Cavnar-Trenkle out-of-place distance: every n-gram of the
	// document profile costs a language the difference between its
	// rank there and its rank here, or profileSize when the language
	// lacks it. An n-gram in no profile costs every language that same
	// penalty, cannot change which is nearest, and is skipped.
	for i, key := range s.ranked(text) {
		slot := c.table.find(key)
		if slot.key == 0 {
			continue
		}
		for l, r := range c.ranks[int(slot.val)*n:][:n] {
			switch j := int(r); {
			case r == noRank:
				s.dist[l] += profileSize
			case i > j:
				s.dist[l] += i - j
			default:
				s.dist[l] += j - i
			}
		}
	}
	best, bestDist := Unknown, math.MaxInt
	for l, d := range s.dist {
		if d < bestDist {
			best, bestDist = c.langs[l], d
		}
	}
	s.release()
	return best
}
