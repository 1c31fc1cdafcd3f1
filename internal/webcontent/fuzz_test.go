package webcontent

import (
	"strings"
	"testing"
)

func FuzzExtractMainContent(f *testing.F) {
	seeds := []string{
		"", "<html><body><p>hello world</p></body></html>",
		"<script>x</script>text", "<a>only links</a>", "< broken",
		"<p>" + strings.Repeat("word ", 50) + "</p>",
		"<!-- comment --><div>content here for everyone</div>",
		"a\xc2<script>x</script>\xa0b", "<STYLE >x</ style>y", "< / a >b</ >c<>d",
		"<br/>one<a/>two\u0085three é\tfour\n", "\xe2\x80<>\x80x", "<SCRİPT>x</script>y",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, html string) {
		out := ExtractMainContent(html)
		if strings.Contains(out, "<") {
			t.Fatalf("tag bracket leaked: %q", out)
		}
		if want := refExtractMainContent(html); out != want {
			t.Fatalf("ExtractMainContent(%q)\n = %q\nwant %q (reference)", html, out, want)
		}
	})
}
