// Package textproc implements the standard information-retrieval text
// preprocessing used by the expert finding pipeline: sanitization,
// tokenization, stop-word removal, and Porter stemming (paper §2.3,
// "Text Processing").
//
// The processing is symmetric: the same Processor is applied both to
// social resources and to expertise needs, so that their term vectors
// live in the same space.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// The token-length filter: a token shorter than MinTokenLen or longer
// than MaxTokenLen runes after sanitization is dropped (the long ones
// are almost always URLs or noise).
const (
	MinTokenLen = 2
	MaxTokenLen = 40
)

// Processor turns raw text into a normalized term stream. Every step
// of the paper's pipeline always runs.
type Processor struct{}

// Default is the Processor.
var Default = &Processor{}

// Text is one text after sanitization and tokenization, with each
// token's Porter stem computed at most once: the single pass over a
// text that the term counter and the entity annotator share.
type Text struct {
	Tokens []string // Tokenize(Sanitize(raw))
	stems  []string // Stem(Tokens[i]) once asked for, "" before
}

// NewText sanitizes and tokenizes raw.
func NewText(raw string) Text {
	tokens := Tokenize(Sanitize(raw))
	return Text{Tokens: tokens, stems: make([]string, len(tokens))}
}

// Stem returns the Porter stem of token i.
func (t *Text) Stem(i int) string {
	if t.stems[i] == "" {
		t.stems[i] = Stem(t.Tokens[i])
	}
	return t.stems[i]
}

// term returns the term token i of t contributes, or "" when the
// length or stop-word filter drops it.
func (p *Processor) term(t *Text, i int) string {
	tok := t.Tokens[i]
	if n := utf8.RuneCountInString(tok); n < MinTokenLen || n > MaxTokenLen {
		return ""
	}
	if IsStopword(tok) {
		return ""
	}
	return t.Stem(i)
}

// Terms runs the full pipeline on text and returns the resulting
// terms, in order of appearance. The returned slice is freshly
// allocated on each call.
func (p *Processor) Terms(text string) []string {
	t := NewText(text)
	terms := make([]string, 0, len(t.Tokens))
	for i := range t.Tokens {
		if term := p.term(&t, i); term != "" {
			terms = append(terms, term)
		}
	}
	return terms
}

// TermFreqOf aggregates the term frequencies of an already tokenized
// text.
func (p *Processor) TermFreqOf(t *Text) map[string]int {
	tf := make(map[string]int)
	for i := range t.Tokens {
		if term := p.term(t, i); term != "" {
			tf[term]++
		}
	}
	return tf
}

// Sanitize lowercases text and strips markup artifacts commonly found
// in social resources: HTML tags and entities, URLs, @-mentions and
// #-prefixes (the hashtag word itself is kept), and control
// characters. It preserves natural-language content.
//
// ASCII letters are lowercased as they are copied; only a text that
// keeps a non-ASCII byte takes a second, Unicode-aware strings.ToLower
// pass, which maps the already-lowered ASCII letters to themselves.
func Sanitize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	ascii := true
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
		case (c == 'h' || c == 'w') && hasURLPrefix(text[i:]): // drop URLs wholesale
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
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			} else if c >= utf8.RuneSelf {
				ascii = false
			}
			b.WriteByte(c)
			i++
		}
	}
	if ascii {
		return b.String()
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
	return c == '_' || isAlnumByte(c)
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
// tokenizers. An ASCII text is split byte by byte; any other goes
// through strings.FieldsFunc, whose result the byte loop equals.
func Tokenize(text string) []string {
	n := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return strings.FieldsFunc(text, func(r rune) bool {
				return !unicode.IsLetter(r) && !unicode.IsDigit(r)
			})
		}
		if isAlnumByte(c) && (i == 0 || !isAlnumByte(text[i-1])) {
			n++
		}
	}
	tokens := make([]string, 0, n)
	for i := 0; i < len(text); {
		for i < len(text) && !isAlnumByte(text[i]) {
			i++
		}
		j := i
		for j < len(text) && isAlnumByte(text[j]) {
			j++
		}
		if j > i {
			tokens = append(tokens, text[i:j])
		}
		i = j
	}
	return tokens
}

// isAlnumByte reports whether the ASCII byte c is a letter or a digit,
// what unicode.IsLetter or unicode.IsDigit reports for it.
func isAlnumByte(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
