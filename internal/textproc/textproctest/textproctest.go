// Package textproctest holds the reference text processing that the
// optimized textproc must reproduce byte for byte: Sanitize, Tokenize
// and the Porter Stem written the straightforward way, with a
// strings.Builder and a second lowercase pass, strings.FieldsFunc,
// and a heap []byte per stem. Only tests import it; the fuzz targets
// and the whole-corpus analysis test compare textproc against it.
package textproctest

import (
	"strings"
	"unicode"
)

// Sanitize lowercases text and strips markup artifacts commonly found
// in social resources: HTML tags and entities, URLs, @-mentions and
// #-prefixes (the hashtag word itself is kept), and control
// characters. It preserves natural-language content.
func Sanitize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	i := 0
	for i < len(text) {
		switch c := text[i]; {
		case c == '<': // drop HTML/XML tags
			j := strings.IndexByte(text[i:], '>')
			if j < 0 {
				i = len(text)
				continue
			}
			b.WriteByte(' ')
			i += j + 1
		case c == '&': // drop HTML entities like &amp;
			j := indexEntityEnd(text[i:])
			if j > 0 {
				b.WriteByte(' ')
				i += j
				continue
			}
			b.WriteByte(c)
			i++
		case hasURLPrefix(text[i:]): // drop URLs wholesale
			j := i
			for j < len(text) && !isSpaceByte(text[j]) {
				j++
			}
			b.WriteByte(' ')
			i = j
		case c == '@': // drop @mentions wholesale
			j := i + 1
			for j < len(text) && isWordByte(text[j]) {
				j++
			}
			b.WriteByte(' ')
			i = j
		case c == '#': // keep hashtag word, drop the marker
			b.WriteByte(' ')
			i++
		case c < 0x20 || c == 0x7f: // control characters
			b.WriteByte(' ')
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return strings.ToLower(b.String())
}

func hasURLPrefix(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") ||
		strings.HasPrefix(s, "www.")
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isWordByte(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// indexEntityEnd reports the length of an HTML entity at the start of
// s ("&amp;", "&#39;", ...), or 0 if s does not start with one.
func indexEntityEnd(s string) int {
	if len(s) < 3 || s[0] != '&' {
		return 0
	}
	for j := 1; j < len(s) && j < 10; j++ {
		c := s[j]
		switch {
		case c == ';':
			if j == 1 {
				return 0
			}
			return j + 1
		case c == '#' && j == 1:
		case isWordByte(c):
		default:
			return 0
		}
	}
	return 0
}

// Tokenize splits sanitized text into word tokens. Letters and digits
// are token constituents; an apostrophe inside a word splits it and
// keeps both parts ("don't" → "don", "t"), matching common IR
// tokenizers.
func Tokenize(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Stem returns the Porter stem of a lowercase word, following M.F.
// Porter, "An algorithm for suffix stripping", Program 14(3) 1980.
// Words shorter than three letters, or containing bytes outside
// 'a'..'z', are returned unchanged.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	s := &stemmer{b: []byte(word), k: len(word) - 1}
	s.step1ab()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5()
	return string(s.b[:s.k+1])
}

type stemmer struct {
	b []byte
	k int // offset of the last letter of the current stem
	j int // general offset set by ends
}

// cons reports whether b[i] is a consonant.
func (s *stemmer) cons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.cons(i - 1)
	}
	return true
}

// m measures the number of consonant-vowel sequences between 0 and j.
func (s *stemmer) m() int {
	n, i := 0, 0
	for {
		if i > s.j {
			return n
		}
		if !s.cons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.cons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.cons(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether 0..j contains a vowel.
func (s *stemmer) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.cons(i) {
			return true
		}
	}
	return false
}

// doublec reports whether i, i-1 contain a double consonant.
func (s *stemmer) doublec(i int) bool {
	if i < 1 {
		return false
	}
	if s.b[i] != s.b[i-1] {
		return false
	}
	return s.cons(i)
}

// cvc reports whether i-2, i-1, i has the form consonant-vowel-
// consonant where the second consonant is not w, x or y. Used to
// restore a final e, e.g. cav(e), lov(e), hop(e).
func (s *stemmer) cvc(i int) bool {
	if i < 2 || !s.cons(i) || s.cons(i-1) || !s.cons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether 0..k ends with the string t; if so it sets j
// to the offset just before the suffix.
func (s *stemmer) ends(t string) bool {
	l := len(t)
	if l > s.k+1 {
		return false
	}
	if string(s.b[s.k+1-l:s.k+1]) != t {
		return false
	}
	s.j = s.k - l
	return true
}

// setto sets j+1..k to the characters of t, readjusting k.
func (s *stemmer) setto(t string) {
	s.b = append(s.b[:s.j+1], t...)
	s.k = s.j + len(t)
}

// r replaces the suffix with t when m() > 0.
func (s *stemmer) r(t string) {
	if s.m() > 0 {
		s.setto(t)
	}
}

// step1ab removes plurals and -ed or -ing.
func (s *stemmer) step1ab() {
	if s.b[s.k] == 's' {
		switch {
		case s.ends("sses"):
			s.k -= 2
		case s.ends("ies"):
			s.setto("i")
		case s.b[s.k-1] != 's':
			s.k--
		}
	}
	if s.ends("eed") {
		if s.m() > 0 {
			s.k--
		}
	} else if (s.ends("ed") || s.ends("ing")) && s.vowelInStem() {
		s.k = s.j
		switch {
		case s.ends("at"):
			s.setto("ate")
		case s.ends("bl"):
			s.setto("ble")
		case s.ends("iz"):
			s.setto("ize")
		case s.doublec(s.k):
			if c := s.b[s.k]; c != 'l' && c != 's' && c != 'z' {
				s.k--
			}
		default:
			s.j = s.k
			if s.m() == 1 && s.cvc(s.k) {
				s.setto("e")
			}
		}
	}
}

// step1c turns terminal y to i when there is another vowel in the stem.
func (s *stemmer) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[s.k] = 'i'
	}
}

// step2 maps double suffixes to single ones when m() > 0.
func (s *stemmer) step2() {
	if s.k < 1 {
		return
	}
	switch s.b[s.k-1] {
	case 'a':
		switch {
		case s.ends("ational"):
			s.r("ate")
		case s.ends("tional"):
			s.r("tion")
		}
	case 'c':
		switch {
		case s.ends("enci"):
			s.r("ence")
		case s.ends("anci"):
			s.r("ance")
		}
	case 'e':
		if s.ends("izer") {
			s.r("ize")
		}
	case 'l':
		switch {
		case s.ends("bli"):
			s.r("ble")
		case s.ends("alli"):
			s.r("al")
		case s.ends("entli"):
			s.r("ent")
		case s.ends("eli"):
			s.r("e")
		case s.ends("ousli"):
			s.r("ous")
		}
	case 'o':
		switch {
		case s.ends("ization"):
			s.r("ize")
		case s.ends("ation"):
			s.r("ate")
		case s.ends("ator"):
			s.r("ate")
		}
	case 's':
		switch {
		case s.ends("alism"):
			s.r("al")
		case s.ends("iveness"):
			s.r("ive")
		case s.ends("fulness"):
			s.r("ful")
		case s.ends("ousness"):
			s.r("ous")
		}
	case 't':
		switch {
		case s.ends("aliti"):
			s.r("al")
		case s.ends("iviti"):
			s.r("ive")
		case s.ends("biliti"):
			s.r("ble")
		}
	case 'g':
		if s.ends("logi") {
			s.r("log")
		}
	}
}

// step3 deals with -ic-, -full, -ness etc.
func (s *stemmer) step3() {
	switch s.b[s.k] {
	case 'e':
		switch {
		case s.ends("icate"):
			s.r("ic")
		case s.ends("ative"):
			s.r("")
		case s.ends("alize"):
			s.r("al")
		}
	case 'i':
		if s.ends("iciti") {
			s.r("ic")
		}
	case 'l':
		switch {
		case s.ends("ical"):
			s.r("ic")
		case s.ends("ful"):
			s.r("")
		}
	case 's':
		if s.ends("ness") {
			s.r("")
		}
	}
}

// step4 takes off -ant, -ence etc. when m() > 1.
func (s *stemmer) step4() {
	if s.k < 1 {
		return
	}
	switch s.b[s.k-1] {
	case 'a':
		if !s.ends("al") {
			return
		}
	case 'c':
		if !s.ends("ance") && !s.ends("ence") {
			return
		}
	case 'e':
		if !s.ends("er") {
			return
		}
	case 'i':
		if !s.ends("ic") {
			return
		}
	case 'l':
		if !s.ends("able") && !s.ends("ible") {
			return
		}
	case 'n':
		if !s.ends("ant") && !s.ends("ement") && !s.ends("ment") && !s.ends("ent") {
			return
		}
	case 'o':
		if s.ends("ion") {
			if s.j < 0 || (s.b[s.j] != 's' && s.b[s.j] != 't') {
				return
			}
		} else if !s.ends("ou") {
			return
		}
	case 's':
		if !s.ends("ism") {
			return
		}
	case 't':
		if !s.ends("ate") && !s.ends("iti") {
			return
		}
	case 'u':
		if !s.ends("ous") {
			return
		}
	case 'v':
		if !s.ends("ive") {
			return
		}
	case 'z':
		if !s.ends("ize") {
			return
		}
	default:
		return
	}
	if s.m() > 1 {
		s.k = s.j
	}
}

// step5 removes a final -e and changes -ll to -l when m() > 1.
func (s *stemmer) step5() {
	s.j = s.k
	if s.b[s.k] == 'e' {
		a := s.m()
		if a > 1 || (a == 1 && !s.cvc(s.k-1)) {
			s.k--
		}
	}
	if s.b[s.k] == 'l' && s.doublec(s.k) && s.m() > 1 {
		s.k--
	}
}
