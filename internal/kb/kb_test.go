package kb

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinLoads(t *testing.T) {
	k := Builtin()
	if k.Len() < 100 {
		t.Fatalf("builtin KB has %d entities, want >= 100", k.Len())
	}
	if Builtin() != k {
		t.Error("Builtin not memoized")
	}
}

func TestBuiltinCoversAllDomains(t *testing.T) {
	k := Builtin()
	for _, d := range Domains {
		if n := len(k.EntitiesInDomain(d)); n < 15 {
			t.Errorf("domain %s has %d entities, want >= 15", d, n)
		}
		if len(k.Vocab(d)) < 20 {
			t.Errorf("domain %s has %d vocab words, want >= 20", d, len(k.Vocab(d)))
		}
	}
}

func TestEntityByLabel(t *testing.T) {
	k := Builtin()
	e, ok := k.EntityByLabel("Michael Phelps")
	if !ok {
		t.Fatal("Michael Phelps not found")
	}
	if e.Domain != Sport || e.Type != "Athlete" {
		t.Errorf("entity = %+v, want Sport Athlete", e)
	}
	if e.URI != "wiki:Michael_Phelps" {
		t.Errorf("URI = %q", e.URI)
	}
	if _, ok := k.EntityByLabel("No Such Entity"); ok {
		t.Error("found nonexistent entity")
	}
}

func TestAmbiguousAnchors(t *testing.T) {
	k := Builtin()
	tests := []struct {
		anchor  string
		domains []Domain
	}{
		{"milan", []Domain{Location, Sport}},
		{"python", []Domain{ComputerEngineering, Science}},
		{"java", []Domain{ComputerEngineering, Location}},
		{"mercury", []Domain{Music, Science}},
		{"steam", []Domain{Science, Technology}},
	}
	for _, tc := range tests {
		cands, _ := k.Candidates(tc.anchor)
		if len(cands) < 2 {
			t.Errorf("anchor %q has %d candidates, want >= 2", tc.anchor, len(cands))
			continue
		}
		got := map[Domain]bool{}
		for _, c := range cands {
			got[k.Entity(c.Entity).Domain] = true
		}
		for _, d := range tc.domains {
			if !got[d] {
				t.Errorf("anchor %q missing candidate in domain %s", tc.anchor, d)
			}
		}
	}
}

func TestCommonnessNormalized(t *testing.T) {
	k := Builtin()
	checked := 0
	for _, e := range k.Entities() {
		norm := NormalizeAnchor(e.Label)
		cands, _ := k.Candidates(norm)
		if cands == nil {
			t.Errorf("canonical label %q is not an anchor", e.Label)
			continue
		}
		var sum float64
		for _, c := range cands {
			if c.Commonness <= 0 || c.Commonness > 1 {
				t.Errorf("anchor %q candidate commonness %v out of (0,1]", norm, c.Commonness)
			}
			sum += c.Commonness
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("anchor %q commonness sums to %v, want 1", norm, sum)
		}
		// Candidates must be sorted by descending commonness.
		for i := 1; i < len(cands); i++ {
			if cands[i].Commonness > cands[i-1].Commonness {
				t.Errorf("anchor %q candidates not sorted", norm)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no anchors checked")
	}
}

func TestLinkProbRange(t *testing.T) {
	k := Builtin()
	for _, e := range k.Entities() {
		_, lp := k.Candidates(NormalizeAnchor(e.Label))
		if lp <= 0 || lp > 1 {
			t.Errorf("entity %q link prob %v out of (0,1]", e.Label, lp)
		}
	}
	// "friends" must be stop-word-like.
	if _, lp := k.Candidates("friends"); lp > 0.2 {
		t.Errorf("anchor friends lp = %v, want <= 0.2", lp)
	}
}

func TestNormalizeAnchor(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Michael  Phelps", "michael phelps"},
		{"  AC Milan ", "ac milan"},
		{"PHP", "php"},
		{"", ""},
		{"   ", ""},
	}
	for _, tc := range tests {
		if got := NormalizeAnchor(tc.in); got != tc.want {
			t.Errorf("NormalizeAnchor(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestMaxAnchorTokens(t *testing.T) {
	k := Builtin()
	if k.MaxAnchorTokens() < 3 {
		t.Errorf("MaxAnchorTokens = %d, want >= 3 (e.g. 'how i met your mother')", k.MaxAnchorTokens())
	}
}

func TestAnchorSpan(t *testing.T) {
	k := Builtin()
	for anchor, want := range map[string]int{
		"how":     5, // "how i met your mother"
		"michael": 2, // "michael phelps"
		"milan":   1,
		"mother":  0, // inside an anchor, starts none
		"":        0,
	} {
		if got := k.AnchorSpan(anchor); got != want {
			t.Errorf("AnchorSpan(%q) = %d, want %d", anchor, got, want)
		}
	}
	// The span at an anchor's first token reaches the whole anchor.
	for _, e := range k.Entities() {
		tokens := strings.Fields(NormalizeAnchor(e.Label))
		if got := k.AnchorSpan(tokens[0]); got < len(tokens) || got > k.MaxAnchorTokens() {
			t.Errorf("AnchorSpan(%q) = %d, label %q has %d tokens, longest anchor %d",
				tokens[0], got, e.Label, len(tokens), k.MaxAnchorTokens())
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.AddEntity("X", "T", Sport, 0.5)
	b.AddAnchor("y", "Unknown", 1, 0.5)
	if _, err := b.Build(); err == nil {
		t.Error("Build with unknown entity anchor: want error")
	}

	b = NewBuilder()
	b.AddEntity("X", "T", Sport, 0.5)
	b.AddEntity("X", "T", Sport, 0.5)
	if _, err := b.Build(); err == nil {
		t.Error("Build with duplicate entity: want error")
	}

	b = NewBuilder()
	b.AddEntity("X", "T", Sport, 0.5)
	b.AddAnchor("x", "X", 1, 0.5) // duplicate of the auto-added canonical anchor
	if _, err := b.Build(); err == nil {
		t.Error("Build with duplicate anchor: want error")
	}
}

func TestInVocab(t *testing.T) {
	k := Builtin()
	if !k.InVocab(Sport, "swimming") {
		t.Error("swimming not in Sport vocab")
	}
	if k.InVocab(Sport, "compiler") {
		t.Error("compiler unexpectedly in Sport vocab")
	}
}

func TestVocabWordsAreLowercaseSingleTokens(t *testing.T) {
	k := Builtin()
	for _, d := range Domains {
		for _, w := range k.Vocab(d) {
			if w != strings.ToLower(w) || strings.ContainsAny(w, " \t") {
				t.Errorf("vocab word %q in %s is not a lowercase single token", w, d)
			}
		}
	}
}

// Property: NormalizeAnchor is idempotent.
func TestNormalizeAnchorIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := NormalizeAnchor(s)
		return NormalizeAnchor(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every entity ID round-trips through Entity().
func TestEntityIDsContiguous(t *testing.T) {
	k := Builtin()
	for i := 0; i < k.Len(); i++ {
		if got := k.Entity(EntityID(i)).ID; got != EntityID(i) {
			t.Fatalf("Entity(%d).ID = %d", i, got)
		}
	}
}
