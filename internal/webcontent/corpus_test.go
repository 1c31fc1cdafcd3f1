package webcontent_test

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/webcontent"
)

// Every page of a generated corpus renders to the reference renderer's
// HTML and extracts to the reference extractor's text of it.
func TestExtractMatchesReferenceOnCorpus(t *testing.T) {
	web := dataset.Generate(dataset.Config{Seed: 7, Scale: 1.01}).Web
	pages := web.Pages()
	if len(pages) < 10_000 {
		t.Fatalf("corpus has %d pages, want at least 10000", len(pages))
	}
	for _, p := range pages {
		html := webcontent.ReferenceRender(p)
		if got, ok := web.Render(p.URL); !ok || got != html {
			t.Fatalf("Render(%s) = %q, %v\nwant %q (reference)", p.URL, got, ok, html)
		}
		got, ok := web.Extract(p.URL)
		if want := webcontent.ReferenceExtractMainContent(html); !ok || got != want {
			t.Fatalf("Extract(%s) = %q, %v\nwant %q (reference)", p.URL, got, ok, want)
		}
	}
}
