package webcontent

import (
	"fmt"
	"strings"
)

// This file keeps the renderer and the extractor as they were before
// they wrote into reused byte buffers and parsed in one pass, verbatim
// but for their names and the renderer's page argument: the oracle
// that FuzzExtractMainContent and the table and corpus tests hold them
// to byte for byte.

// ReferenceRender and ReferenceExtractMainContent are the reference
// renderer and extractor, exported for the corpus test in package
// webcontent_test.
var (
	ReferenceRender             = refRender
	ReferenceExtractMainContent = refExtractMainContent
)

func refRender(p Page) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n", p.Title)
	b.WriteString(`<nav><a href="/">Home</a> <a href="/news">News</a> ` +
		`<a href="/about">About</a> <a href="/contact">Contact</a> ` +
		`<a href="/login">Login</a> <a href="/signup">Sign up</a></nav>` + "\n")
	b.WriteString(`<div class="sidebar"><a href="/trending">Trending</a> ` +
		`<a href="/popular">Popular posts</a> <a href="/archive">Archive</a> ` +
		`<a href="/tags">Tags</a> <a href="/rss">RSS feed</a></div>` + "\n")
	fmt.Fprintf(&b, "<article><h1>%s</h1>\n", p.Title)
	for _, para := range strings.Split(p.Main, "\n") {
		if strings.TrimSpace(para) == "" {
			continue
		}
		fmt.Fprintf(&b, "<p>%s</p>\n", para)
	}
	b.WriteString("</article>\n")
	b.WriteString(`<footer><a href="/terms">Terms of service</a> ` +
		`<a href="/privacy">Privacy policy</a> <a href="/cookies">Cookie policy</a> ` +
		`Copyright 2012 Example Media</footer>` + "\n")
	b.WriteString("</body></html>\n")
	return b.String()
}

// refBlock is a contiguous run of text between block-level boundaries,
// with link statistics for boilerplate scoring.
type refBlock struct {
	text      string
	words     int
	linkWords int
}

func refExtractMainContent(html string) string {
	blocks := refParseBlocks(html)
	var out []string
	for _, b := range blocks {
		if b.words == 0 {
			continue
		}
		linkDensity := float64(b.linkWords) / float64(b.words)
		// Keep substantial low-link-density blocks, plus short ones
		// with no links at all (titles, headings).
		if (b.words >= 6 && linkDensity < 0.33) || (b.words >= 1 && b.linkWords == 0) {
			out = append(out, b.text)
		}
	}
	return strings.Join(out, "\n")
}

// refBlockTags end a text block when opened or closed.
var refBlockTags = map[string]bool{
	"p": true, "div": true, "article": true, "section": true,
	"nav": true, "footer": true, "header": true, "aside": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"li": true, "ul": true, "ol": true, "table": true, "tr": true,
	"td": true, "th": true, "br": true, "body": true, "title": true,
	"blockquote": true, "pre": true,
}

// refSkipTags have their entire content dropped.
var refSkipTags = map[string]bool{"script": true, "style": true, "head": false}

func refParseBlocks(html string) []refBlock {
	var blocks []refBlock
	var cur strings.Builder
	curWords, curLinkWords := 0, 0
	inLink := false
	skipUntil := "" // closing tag name that ends a skipped region

	flush := func() {
		text := strings.Join(strings.Fields(cur.String()), " ")
		if text != "" {
			blocks = append(blocks, refBlock{text: text, words: curWords, linkWords: curLinkWords})
		}
		cur.Reset()
		curWords, curLinkWords = 0, 0
	}

	i := 0
	for i < len(html) {
		c := html[i]
		if c != '<' {
			j := strings.IndexByte(html[i:], '<')
			if j < 0 {
				j = len(html) - i
			}
			if skipUntil == "" {
				seg := html[i : i+j]
				n := len(strings.Fields(seg))
				cur.WriteString(seg)
				curWords += n
				if inLink {
					curLinkWords += n
				}
			}
			i += j
			continue
		}
		end := strings.IndexByte(html[i:], '>')
		if end < 0 {
			break
		}
		tag := html[i+1 : i+end]
		i += end + 1
		closing := strings.HasPrefix(tag, "/")
		fields := strings.Fields(strings.TrimPrefix(tag, "/"))
		if len(fields) == 0 {
			continue
		}
		name := strings.TrimSuffix(strings.ToLower(fields[0]), "/")
		switch {
		case skipUntil != "":
			if closing && name == skipUntil {
				skipUntil = ""
			}
		case refSkipTags[name] && !closing:
			skipUntil = name
		case name == "a":
			inLink = !closing
			cur.WriteByte(' ')
		case refBlockTags[name]:
			flush()
		default:
			cur.WriteByte(' ')
		}
	}
	flush()
	return blocks
}
