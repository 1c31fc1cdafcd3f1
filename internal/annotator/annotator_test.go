package annotator

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"expertfind/internal/kb"
)

func newDefault() *Annotator {
	return New(kb.Builtin())
}

func annotatedLabels(anns []Annotation) map[string]bool {
	out := make(map[string]bool, len(anns))
	for _, a := range anns {
		out[a.Entity.Label] = true
	}
	return out
}

func TestAnnotateSimpleMention(t *testing.T) {
	anns := newDefault().Annotate("Michael Phelps is the best! Great freestyle gold medal")
	labels := annotatedLabels(anns)
	if !labels["Michael Phelps"] {
		t.Errorf("missing Michael Phelps in %v", labels)
	}
	if !labels["Freestyle swimming"] {
		t.Errorf("missing Freestyle swimming in %v", labels)
	}
}

func TestAnnotateMultiTokenAnchor(t *testing.T) {
	anns := newDefault().Annotate("Can you list some famous actors in How I Met Your Mother?")
	labels := annotatedLabels(anns)
	if !labels["How I Met Your Mother"] {
		t.Errorf("missing multi-token entity, got %v", labels)
	}
}

func TestDisambiguationByContext(t *testing.T) {
	a := newDefault()

	// "milan" in a travel context must resolve to the city.
	anns := a.Annotate("can you list some restaurants in milan near the cathedral for my trip")
	var milanEnt string
	for _, an := range anns {
		if an.Anchor == "milan" {
			milanEnt = an.Entity.Label
		}
	}
	if milanEnt != "Milan" {
		t.Errorf("travel context: milan resolved to %q, want Milan", milanEnt)
	}

	// "milan" in a football context must resolve to the club.
	anns = a.Annotate("great match yesterday, milan scored two goals in the derby and won the league game")
	milanEnt = ""
	for _, an := range anns {
		if an.Anchor == "milan" {
			milanEnt = an.Entity.Label
		}
	}
	if milanEnt != "AC Milan" {
		t.Errorf("football context: milan resolved to %q, want AC Milan", milanEnt)
	}
}

func TestDisambiguationPython(t *testing.T) {
	a := newDefault()
	anns := a.Annotate("wrote a python function to parse the string and fix the bug in the code")
	for _, an := range anns {
		if an.Anchor == "python" && an.Entity.Label != "Python (programming language)" {
			t.Errorf("code context: python resolved to %q", an.Entity.Label)
		}
	}
	anns = a.Annotate("saw a huge python at the zoo, the species lives in tropical regions")
	for _, an := range anns {
		if an.Anchor == "python" && an.Entity.Label != "Python (snake)" {
			t.Errorf("zoo context: python resolved to %q", an.Entity.Label)
		}
	}
}

func TestLowLinkProbAnchorDropped(t *testing.T) {
	// "friends" has lp 0.12 < default 0.15: must never be spotted in
	// ordinary conversation.
	anns := newDefault().Annotate("met some friends for dinner and we talked for hours")
	if labels := annotatedLabels(anns); labels["Friends (TV series)"] {
		t.Errorf("low-lp anchor spotted: %v", labels)
	}
}

func TestDScoreRange(t *testing.T) {
	a := newDefault()
	texts := []string{
		"Michael Phelps won the freestyle race at the Olympics",
		"the mercury level rose in the experiment with copper electrodes",
		"queen played a concert with freddie mercury on stage",
		"bought a new graphics card from nvidia to play diablo 3",
	}
	for _, txt := range texts {
		for _, an := range a.Annotate(txt) {
			if an.DScore <= 0 || an.DScore > 1 {
				t.Errorf("dScore %v out of (0,1] for %q in %q", an.DScore, an.Anchor, txt)
			}
			if an.Start < 0 || an.End <= an.Start {
				t.Errorf("bad span [%d,%d) for %q", an.Start, an.End, an.Anchor)
			}
		}
	}
}

func TestAnnotationsNonOverlappingAndOrdered(t *testing.T) {
	a := newDefault()
	anns := a.Annotate("michael phelps swam freestyle at the olympic games in london, then visited the eiffel tower in paris")
	for i := 1; i < len(anns); i++ {
		if anns[i].Start < anns[i-1].End {
			t.Errorf("overlapping annotations: %v and %v", anns[i-1], anns[i])
		}
	}
	if len(anns) < 3 {
		t.Errorf("expected >= 3 annotations, got %d", len(anns))
	}
}

func TestAnnotateEmptyAndPlainText(t *testing.T) {
	a := newDefault()
	if anns := a.Annotate(""); anns != nil {
		t.Errorf("Annotate(empty) = %v", anns)
	}
	if anns := a.Annotate("completely mundane words without any known surface forms whatsoever"); len(anns) != 0 {
		t.Errorf("Annotate(plain) = %v", anns)
	}
}

func TestAmbiguousMercuryContexts(t *testing.T) {
	a := newDefault()
	anns := a.Annotate("freddie sang with queen while mercury was the greatest singer of the band on stage")
	for _, an := range anns {
		if an.Anchor == "mercury" && an.Entity.Domain != kb.Music {
			t.Errorf("music context: mercury resolved to %v", an.Entity.Label)
		}
	}
	anns = a.Annotate("the mercury in the thermometer reacts to temperature, a metal element with high conductivity in the experiment")
	for _, an := range anns {
		if an.Anchor == "mercury" && an.Entity.Domain != kb.Science {
			t.Errorf("science context: mercury resolved to %v", an.Entity.Label)
		}
	}
}

// Property: Annotate is deterministic and never panics on arbitrary
// input.
func TestAnnotateArbitraryInput(t *testing.T) {
	a := newDefault()
	f := func(s string) bool {
		x := a.Annotate(s)
		y := a.Annotate(s)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// everyWindowSpots is the spotter spotAnchors replaced, kept as its
// reference: at every token it joins and looks up every window up to
// the end of the text, longest first.
func everyWindowSpots(a *Annotator, tokens []string) []spot {
	var spots []spot
	for i := 0; i < len(tokens); {
		matched := false
		for n := len(tokens) - i; n >= 1; n-- {
			anchor := strings.Join(tokens[i:i+n], " ")
			cands, lp := a.kb.Candidates(anchor)
			if cands == nil || lp < minLinkProb {
				continue
			}
			spots = append(spots, spot{anchor: anchor, start: i, end: i + n, cands: cands})
			i += n
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	return spots
}

// The token sequences are drawn from the words anchors are made of, so
// that prefixes of long anchors, anchors cut off by the end of the text
// and anchors inside longer anchors all occur.
func TestSpotAnchorsMatchesEveryWindowReference(t *testing.T) {
	a := newDefault()
	words := []string{"the", "a", "of", "x1", "é"}
	for _, e := range a.kb.Entities() {
		words = append(words, strings.Fields(kb.NormalizeAnchor(e.Label))...)
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		tokens := make([]string, r.Intn(16))
		for j := range tokens {
			tokens[j] = words[r.Intn(len(words))]
		}
		if got, want := a.spotAnchors(tokens), everyWindowSpots(a, tokens); !reflect.DeepEqual(got, want) {
			t.Fatalf("spotAnchors(%q):\n got %+v\nwant %+v", tokens, got, want)
		}
	}
}

func BenchmarkAnnotate(b *testing.B) {
	a := newDefault()
	text := "Just finished 30min freestyle training at the swimming pool, michael phelps " +
		"is my hero since the olympic games in london, what a great race"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Annotate(text)
	}
}
