package webcontent

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripRecoverMainContent(t *testing.T) {
	w := NewWeb()
	main := "Copper is an excellent electrical conductor because its atoms have a free electron.\n" +
		"The conductivity of copper is second only to silver among pure metals."
	w.AddPage("https://science.example.com/copper", "Why copper conducts", main)

	got, ok := w.Extract("https://science.example.com/copper")
	if !ok {
		t.Fatal("Extract: page not found")
	}
	if !strings.Contains(got, "free electron") || !strings.Contains(got, "second only to silver") {
		t.Errorf("main content lost:\n%s", got)
	}
	if !strings.Contains(got, "Why copper conducts") {
		t.Errorf("title lost:\n%s", got)
	}
	for _, boiler := range []string{"Privacy policy", "Sign up", "Trending", "RSS feed", "Copyright"} {
		if strings.Contains(got, boiler) {
			t.Errorf("boilerplate %q survived extraction:\n%s", boiler, got)
		}
	}
}

func TestExtractUnknownURL(t *testing.T) {
	w := NewWeb()
	if _, ok := w.Extract("https://nowhere.example.com/"); ok {
		t.Error("Extract of unknown URL succeeded")
	}
	if _, ok := w.Render("https://nowhere.example.com/"); ok {
		t.Error("Render of unknown URL succeeded")
	}
}

func TestAddPageReplacesAndLen(t *testing.T) {
	w := NewWeb()
	w.AddPage("u", "t1", "first body text that is long enough to be kept by the extractor")
	w.AddPage("u", "t2", "second body text that is long enough to be kept by the extractor")
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
	got, _ := w.Extract("u")
	if !strings.Contains(got, "second body") {
		t.Errorf("page not replaced: %s", got)
	}
}

func TestExtractMainContentDropsScriptsAndStyles(t *testing.T) {
	html := `<html><body><script>var x = "tracking code here";</script>
<style>.a { color: red }</style>
<p>The actual article text talks about swimming training techniques in detail.</p>
</body></html>`
	got := ExtractMainContent(html)
	if strings.Contains(got, "tracking") || strings.Contains(got, "color") {
		t.Errorf("script/style leaked: %s", got)
	}
	if !strings.Contains(got, "swimming training") {
		t.Errorf("content lost: %s", got)
	}
}

func TestExtractMainContentDropsLinkFarms(t *testing.T) {
	html := `<div><a href="/a">Home</a> <a href="/b">News</a> <a href="/c">Sports page</a> <a href="/d">More links</a></div>
<p>Real content with enough words to pass the block length threshold easily here.</p>`
	got := ExtractMainContent(html)
	if strings.Contains(got, "Home") {
		t.Errorf("link farm kept: %s", got)
	}
	if !strings.Contains(got, "Real content") {
		t.Errorf("content lost: %s", got)
	}
}

func TestExtractMainContentKeepsHeadings(t *testing.T) {
	got := ExtractMainContent("<h1>Short Title</h1><p>Body of the page with several words to keep in the output.</p>")
	if !strings.Contains(got, "Short Title") {
		t.Errorf("heading dropped: %s", got)
	}
}

func TestExtractMainContentMalformedHTML(t *testing.T) {
	for _, html := range []string{"", "<", "<>", "< >", "<p", "text only", "<p>unclosed", "a < b and c > d"} {
		// Must not panic.
		_ = ExtractMainContent(html)
	}
}

// Property: extraction output never contains tag brackets and is
// deterministic.
func TestExtractProperties(t *testing.T) {
	f := func(s string) bool {
		a := ExtractMainContent(s)
		if a != ExtractMainContent(s) {
			return false
		}
		return !strings.Contains(a, "<")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// htmlAtoms are the pieces TestExtractMatchesReferenceOnRandomHTML
// builds its strings from: tags in every case and spacing the
// reference's strings.Fields and strings.ToLower accept, empty tags,
// self-closing tags, and the bytes of Unicode spaces, alone and split,
// so that an NBSP or an en quad can form across a skipped region.
var htmlAtoms = []string{
	"<p>", "</p>", "<P class=x>", "<div id='a'>", "</DIV>", "<h1>", "</h1>", "<li>", "<br/>", "<br>",
	"<title>", "<body>", "<head>", "<blockquote>", "<bloc\u212aquote>", "<pre/>", "<span>", "</span>",
	"<a href=\"/x\">", "</a>", "<A>", "</A >", "<a/>", "< / a >", "< a>", "</ a>",
	"<script>", "</script>", "<SCRIPT type=x>", "</ScRiPt>", "<scr\u0130pt>", "<script/>",
	"<STYLE >", "</style>", "</ style>", "</ >", "<>", "< >", "<\u0085p>", "<p\u00a0x>",
	"<!-- note -->", "<", ">", "/",
	"copper", "conductor", "x", "word", "é", "naïve", "\u0085", "\u00a0", "\u2000", "\u3000",
	"\xc2", "\xa0", "\x85", "\xe2\x80", "\x80", "\xe3", "\xf0\x9f", "\x98\x80", "\xff",
	" ", "  ", "\t", "\n", "\r\n", "\v\f",
}

func TestExtractMatchesReferenceOnRandomHTML(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 300_000; i++ {
		b.Reset()
		for n := r.Intn(24); n > 0; n-- {
			b.WriteString(htmlAtoms[r.Intn(len(htmlAtoms))])
		}
		html := b.String()
		if got, want := ExtractMainContent(html), refExtractMainContent(html); got != want {
			t.Fatalf("ExtractMainContent(%q)\n = %q\nwant %q (reference)", html, got, want)
		}
	}
}

// Web.Extract renders and parses in free-listed buffers: once they
// are warm, the extracted string is its one allocation.
func TestExtractAllocatesOnlyItsResult(t *testing.T) {
	w := NewWeb()
	w.AddPage("u", "Copper", strings.Repeat("a paragraph about copper conductors and electrons in metals\n", 10))
	if n := testing.AllocsPerRun(100, func() { w.Extract("u") }); n != 1 {
		t.Errorf("Web.Extract allocates %v times per call, want 1", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	w := NewWeb()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			w.AddPage("url", "t", "some content body long enough for extraction to keep it around")
		}
	}()
	for i := 0; i < 100; i++ {
		w.Extract("url")
	}
	<-done
}

func BenchmarkExtract(b *testing.B) {
	w := NewWeb()
	w.AddPage("u", "Benchmark page", strings.Repeat("a paragraph about copper conductors and electrons in metals\n", 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Extract("u")
	}
}
