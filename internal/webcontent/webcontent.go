// Package webcontent simulates the URL Content Extraction step of the
// analysis pipeline (paper §2.3). The paper enriches resource text
// with the main content of linked Web pages, extracted through the
// AlchemyAPI text-extraction service; offline, this package provides
// (a) a synthetic Web — a registry of pages keyed by URL, rendered as
// realistic HTML with navigation/sidebar/footer boilerplate — and (b)
// a generic main-content extractor that removes that boilerplate with
// the block-scoring heuristics such services use.
//
// The extractor is deliberately independent from the renderer: it
// works on arbitrary HTML by scoring text blocks on length and link
// density, so the round-trip Render → Extract genuinely exercises a
// boilerplate-removal code path rather than echoing stored text.
package webcontent

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Page is a synthetic Web page.
type Page struct {
	URL   string
	Title string
	Main  string // the main textual content (what extraction should recover)
}

// Web is a registry of synthetic pages. It is safe for concurrent
// use.
type Web struct {
	mu    sync.RWMutex
	pages map[string]Page
}

// NewWeb returns an empty Web.
func NewWeb() *Web {
	return &Web{pages: make(map[string]Page)}
}

// AddPage registers a page under its URL, replacing any previous one.
func (w *Web) AddPage(url, title, main string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pages[url] = Page{URL: url, Title: title, Main: main}
}

// Len returns the number of registered pages.
func (w *Web) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.pages)
}

// Pages returns all registered pages, sorted by URL.
func (w *Web) Pages() []Page {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]Page, 0, len(w.pages))
	for _, p := range w.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Lookup returns the page registered under url.
func (w *Web) Lookup(url string) (Page, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.pages[url]
	return p, ok
}

// Render produces the full HTML of the page at url, with realistic
// boilerplate surrounding the main content, or false when the URL is
// not part of the synthetic Web.
func (w *Web) Render(url string) (string, bool) {
	p, ok := w.Lookup(url)
	if !ok {
		return "", false
	}
	return string(appendPage(nil, p)), true
}

// appendPage appends the HTML of page p to dst.
func appendPage(dst []byte, p Page) []byte {
	dst = append(dst, "<html><head><title>"...)
	dst = append(dst, p.Title...)
	dst = append(dst, "</title></head><body>\n"+
		`<nav><a href="/">Home</a> <a href="/news">News</a> `+
		`<a href="/about">About</a> <a href="/contact">Contact</a> `+
		`<a href="/login">Login</a> <a href="/signup">Sign up</a></nav>`+"\n"+
		`<div class="sidebar"><a href="/trending">Trending</a> `+
		`<a href="/popular">Popular posts</a> <a href="/archive">Archive</a> `+
		`<a href="/tags">Tags</a> <a href="/rss">RSS feed</a></div>`+"\n"+
		"<article><h1>"...)
	dst = append(dst, p.Title...)
	dst = append(dst, "</h1>\n"...)
	for rest, more := p.Main, true; more; {
		var para string
		para, rest, more = strings.Cut(rest, "\n")
		if strings.TrimSpace(para) == "" {
			continue
		}
		dst = append(dst, "<p>"...)
		dst = append(dst, para...)
		dst = append(dst, "</p>\n"...)
	}
	return append(dst, "</article>\n"+
		`<footer><a href="/terms">Terms of service</a> `+
		`<a href="/privacy">Privacy policy</a> <a href="/cookies">Cookie policy</a> `+
		`Copyright 2012 Example Media</footer>`+"\n"+
		"</body></html>\n"...)
}

// Extract fetches the page at url from the synthetic Web and returns
// its extracted main content (title included), or false when the URL
// is unknown. It is the offline equivalent of one AlchemyAPI text
// extraction call. The page is rendered and extracted in free-listed
// buffers: the returned string is the one allocation.
func (w *Web) Extract(url string) (string, bool) {
	p, ok := w.Lookup(url)
	if !ok {
		return "", false
	}
	s := newScratch()
	s.html = appendPage(s.html[:0], p)
	s.out = appendMainContent(s.out[:0], s.html)
	text := string(s.out)
	s.release()
	return text, true
}

// scratch holds the buffers of one Web.Extract: the rendered page and
// the extracted text.
type scratch struct{ html, out []byte }

// maxPooledBytes bounds a kept scratch's buffers. A synthetic page
// renders to under 2 KiB, so eight kept scratches pin at most 1 MiB.
const maxPooledBytes = 64 << 10

// scratchFree is the free list of released scratches, at most eight,
// as langid's and the index's are. Not a sync.Pool, for their reason:
// a pool empties with the garbage collector's cycles, so a build would
// regrow its buffers at times nothing in the program chooses.
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

// release puts the scratch on the free list. One that a large page
// grew past maxPooledBytes, or one that finds the list full, is
// dropped.
func (s *scratch) release() {
	if cap(s.html) > maxPooledBytes || cap(s.out) > maxPooledBytes {
		return
	}
	select {
	case scratchFree <- s:
	default:
	}
}

// ExtractMainContent strips markup from arbitrary HTML and removes
// boilerplate using block scoring: a block is kept when it is long
// enough and its link density is low, the classic heuristic of
// main-content extractors (Kohlschütter et al.'s boilerpipe family).
// A kept block's whitespace runs are folded to single spaces, as
// strings.Fields splits them, and kept blocks are joined by newlines.
func ExtractMainContent(html string) string {
	return string(appendMainContent(nil, []byte(html)))
}

// tagKind is what a tag's name does to extraction.
type tagKind uint8

const (
	tagInline tagKind = iota // any other name: a word boundary
	tagLink                  // a: toggles link text
	tagBlock                 // ends a text block when opened or closed
	tagScript                // script and style have their entire
	tagStyle                 // content dropped
)

// kindOf returns the kind of a lower-case tag name.
func kindOf(name []byte) tagKind {
	switch string(name) {
	case "a":
		return tagLink
	case "script":
		return tagScript
	case "style":
		return tagStyle
	case "p", "div", "article", "section", "nav", "footer", "header", "aside",
		"h1", "h2", "h3", "h4", "h5", "h6", "li", "ul", "ol", "table", "tr",
		"td", "th", "br", "body", "title", "blockquote", "pre":
		return tagBlock
	}
	return tagInline
}

// maxTagName is the longest name kindOf knows plus a self-closing '/'.
const maxTagName = len("blockquote/")

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isSpace reports whether r separates words, as in strings.Fields:
// utf8.RuneError, what an invalid byte decodes to, is not a space.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiSpace[r]
	}
	return unicode.IsSpace(r)
}

// tagName classifies a tag by its name: the first space-separated
// field of the text between its brackets (after a closing '/'),
// lower-cased, less one trailing '/'. It reports false for a tag with
// no field, which extraction ignores.
func tagName(tag []byte) (tagKind, bool) {
	i := 0
	for i < len(tag) {
		r, n := utf8.DecodeRune(tag[i:])
		if !isSpace(r) {
			break
		}
		i += n
	}
	if i == len(tag) {
		return 0, false
	}
	var name [maxTagName]byte
	k, fits := 0, true
	for i < len(tag) {
		r, n := utf8.DecodeRune(tag[i:])
		if isSpace(r) {
			break
		}
		i += n
		if r = unicode.ToLower(r); r >= utf8.RuneSelf || k == len(name) {
			fits = false
			continue
		}
		name[k] = byte(r)
		k++
	}
	if !fits {
		return tagInline, true
	}
	if k > 0 && name[k-1] == '/' {
		k--
	}
	return kindOf(name[:k]), true
}

// appendMainContent appends the main content of html to dst[:0] in one
// pass: each block's text goes straight into the output, and a block
// that scores as boilerplate is cut off it again at its end.
func appendMainContent(dst, html []byte) []byte {
	x := extractor{out: dst[:0]}
	inLink := false
	var skip tagKind // the tag that ends a skipped region, or tagInline
	i := 0
	for i < len(html) {
		if html[i] != '<' {
			j := bytes.IndexByte(html[i:], '<')
			if j < 0 {
				j = len(html) - i
			}
			if skip == tagInline {
				n := x.text(html[i : i+j])
				x.words += n
				if inLink {
					x.linkWords += n
				}
			}
			i += j
			continue
		}
		end := bytes.IndexByte(html[i:], '>')
		if end < 0 {
			break
		}
		tag := html[i+1 : i+end]
		i += end + 1
		closing := len(tag) > 0 && tag[0] == '/'
		if closing {
			tag = tag[1:]
		}
		kind, ok := tagName(tag)
		if !ok {
			continue
		}
		switch {
		case skip != tagInline:
			if closing && kind == skip {
				skip = tagInline
			}
		case (kind == tagScript || kind == tagStyle) && !closing:
			skip = kind
		case kind == tagLink:
			inLink = !closing
			x.space()
		case kind == tagBlock:
			x.flush()
		default:
			x.space()
		}
	}
	x.flush()
	return x.out
}

// extractor is the running state of one extraction. The current
// block's text is the tail of out from start; kept blocks precede it.
// Text runs of one block are contiguous in the block's text: a skipped
// region or an empty tag between two runs joins them, so a rune can be
// split across runs, and pend holds the leading bytes of such a rune
// until the next run completes or breaks it.
type extractor struct {
	out              []byte
	start            int  // len(out) when the current block began
	mid              bool // the block's text ends inside a word
	pend             [utf8.UTFMax]byte
	npend            int // pend[:npend] is a valid, incomplete UTF-8 prefix
	words, linkWords int // the block's word and link-word counts
}

// word appends word bytes b to the block's text, after the block
// separator or a single space when b starts a word.
func (x *extractor) word(b []byte) {
	if !x.mid {
		x.mid = true
		if len(x.out) > x.start {
			x.out = append(x.out, ' ')
		} else if x.start > 0 {
			x.out = append(x.out, '\n')
		}
	}
	x.out = append(x.out, b...)
}

// space ends the word the block's text is in; a held rune prefix that
// a space follows is invalid, so its bytes are word bytes.
func (x *extractor) space() {
	if x.npend > 0 {
		x.word(x.pend[:x.npend])
		x.npend = 0
	}
	x.mid = false
}

// text appends the text run s to the block and returns its word count.
// The count is strings.Fields' of s on its own, so a word that a
// skipped region splits counts twice.
func (x *extractor) text(s []byte) (words int) {
	i := 0
	// Complete the rune a previous run left open. Its continuation
	// bytes in s are, within s alone, invalid bytes and so a word.
	for x.npend > 0 && i < len(s) {
		x.pend[x.npend] = s[i]
		p := x.pend[:x.npend+1]
		if !utf8.FullRune(p) {
			x.npend++
			i++
			continue
		}
		r, n := utf8.DecodeRune(p)
		if n == len(p) {
			i++
			if isSpace(r) {
				x.mid = false
			} else {
				x.word(p)
			}
		} else {
			// s[i] breaks the prefix: it is read afresh below.
			x.word(x.pend[:x.npend])
		}
		x.npend = 0
	}
	inWord := i > 0 // within s alone
	if inWord {
		words = 1
	}
	ws := -1 // start of the word bytes not yet appended, or -1
	for i < len(s) {
		c, n := s[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else if utf8.FullRune(s[i:]) {
			var r rune
			r, n = utf8.DecodeRune(s[i:])
			space = isSpace(r)
		} else {
			// A rune prefix ends s: hold it for the next run. Within
			// s alone its bytes are invalid, so a word.
			if ws >= 0 {
				x.word(s[ws:i])
			}
			x.npend = copy(x.pend[:], s[i:])
			if !inWord {
				words++
			}
			return words
		}
		if space {
			if ws >= 0 {
				x.word(s[ws:i])
				ws = -1
			}
			x.mid, inWord = false, false
		} else {
			if !inWord {
				inWord = true
				words++
			}
			if ws < 0 {
				ws = i
			}
		}
		i += n
	}
	if ws >= 0 {
		x.word(s[ws:])
	}
	return words
}

// flush ends the current block: it stays in out when it has words and
// a low link density, or is all plain text (a title, a heading).
func (x *extractor) flush() {
	x.space()
	keep := false
	if len(x.out) > x.start && x.words > 0 {
		linkDensity := float64(x.linkWords) / float64(x.words)
		keep = (x.words >= 6 && linkDensity < 0.33) || x.linkWords == 0
	}
	if !keep {
		x.out = x.out[:x.start]
	}
	x.start = len(x.out)
	x.words, x.linkWords = 0, 0
}
