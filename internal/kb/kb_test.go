package kb

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"expertfind/internal/textproc"
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

func TestBuiltinEntityRecord(t *testing.T) {
	for _, e := range Builtin().Entities() {
		if e.Label == "Michael Phelps" {
			if e.Domain != Sport || e.Type != "Athlete" || e.URI != "wiki:Michael_Phelps" {
				t.Errorf("entity = %+v, want Sport Athlete wiki:Michael_Phelps", e)
			}
			return
		}
	}
	t.Fatal("Michael Phelps not found")
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
		if got := k.AnchorSpan(tokens[0]); got < len(tokens) {
			t.Errorf("AnchorSpan(%q) = %d, label %q has %d tokens",
				tokens[0], got, e.Label, len(tokens))
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

	b = NewBuilder()
	b.AddEntity("X", "T", Domain("cooking"), 0.5)
	if _, err := b.Build(); err == nil {
		t.Error("Build with an entity outside Domains: want error")
	}

	b = NewBuilder()
	b.AddVocab(Domain("cooking"), "recipe")
	if _, err := b.Build(); err == nil {
		t.Error("Build with vocabulary outside Domains: want error")
	}
}

func TestInVocab(t *testing.T) {
	k := Builtin()
	if sport := k.Vocab(Sport); !slices.Contains(sport, "swimming") || slices.Contains(sport, "compiler") {
		t.Errorf("sport vocabulary %v: want swimming and not compiler", sport)
	}
	// The stemmed lookup the annotator uses hits inflected forms.
	sport := DomainSet(1) << domainIndex(Sport)
	if k.StemDomains("swim")&sport == 0 {
		t.Error("stem swim not in Sport vocab")
	}
	if k.StemDomains("compil")&sport != 0 {
		t.Error("stem compil unexpectedly in Sport vocab")
	}
}

// TestStemDomainsMatchesVocab: a stem's domain set holds exactly the
// domains with a vocabulary word of that stem.
func TestStemDomainsMatchesVocab(t *testing.T) {
	k := Builtin()
	want := map[string]DomainSet{}
	for i, d := range Domains {
		for _, w := range k.Vocab(d) {
			want[textproc.Stem(w)] |= 1 << i
		}
	}
	for stem, set := range want {
		if got := k.StemDomains(stem); got != set {
			t.Errorf("StemDomains(%q) = %07b, want %07b", stem, got, set)
		}
	}
	if got := k.StemDomains("zzzz"); got != 0 {
		t.Errorf("StemDomains of an unknown stem = %07b, want 0", got)
	}
	for _, e := range k.Entities() {
		if got := Domains[k.DomainIndex(e.ID)]; got != e.Domain {
			t.Errorf("entity %q: DomainIndex names %s, want %s", e.Label, got, e.Domain)
		}
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

// The per-domain table built at Build is the filter over Entities() it
// replaces, and reading it allocates nothing.
func TestEntitiesInDomainTable(t *testing.T) {
	k := Builtin()
	all := k.Entities()
	total := 0
	for _, d := range Domains {
		var want []Entity
		for _, e := range all {
			if e.Domain == d {
				want = append(want, e)
			}
		}
		got := k.EntitiesInDomain(d)
		if !slices.Equal(got, want) {
			t.Errorf("EntitiesInDomain(%s): %d entities, want the %d of a filter over Entities()", d, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("EntitiesInDomain(%s): cap %d > len %d: a caller's append would write into the shared table", d, cap(got), len(got))
		}
		total += len(got)
	}
	if total != k.Len() {
		t.Errorf("domains hold %d entities, KB has %d", total, k.Len())
	}
	if got := k.EntitiesInDomain("no-such-domain"); got != nil {
		t.Errorf("EntitiesInDomain(unknown) = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range Domains {
			_ = k.EntitiesInDomain(d)
		}
	}); n != 0 {
		t.Errorf("EntitiesInDomain allocates %v times per run, want 0", n)
	}
}
