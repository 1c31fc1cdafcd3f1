// Package kb provides the knowledge base used for entity recognition
// and disambiguation (paper §2.3). It plays the role Wikipedia plays
// for the TAGME annotator [Ferragina & Scaiella, CIKM 2010] that the
// paper uses: a catalog of real-world entities, each with a unique
// URI, a type (Person, City, Sports Team, ...) and a domain (sports,
// music, technology, ...), plus an anchor dictionary mapping surface
// forms to candidate entities with a commonness prior and a link
// probability.
//
// The same knowledge base supplies the per-domain topic vocabularies
// that the synthetic corpus generator draws from, guaranteeing that
// generated resources contain spottable entity mentions.
package kb

import (
	"fmt"
	"sort"
	"strings"

	"expertfind/internal/textproc"
)

// Domain is one of the seven expertise domains of the paper's
// evaluation dataset (§3.1).
type Domain string

// The seven expertise domains.
const (
	ComputerEngineering Domain = "computer-engineering"
	Location            Domain = "location"
	MoviesTV            Domain = "movies-tv"
	Music               Domain = "music"
	Science             Domain = "science"
	Sport               Domain = "sport"
	Technology          Domain = "technology-games"
)

// Domains lists all expertise domains in the order used by the
// paper's tables. Its length is a constant, so per-domain tallies are
// arrays indexed by a domain's position here.
var Domains = [...]Domain{
	ComputerEngineering, Location, MoviesTV, Music, Science, Sport, Technology,
}

// DomainSet is a set of domains: bit i stands for Domains[i].
type DomainSet uint8

// A DomainSet has a bit for every domain.
var _ [8 - len(Domains)]struct{}

// domainIndex returns d's position in Domains, or -1 for a domain
// outside them.
func domainIndex(d Domain) int {
	for i, dd := range Domains {
		if dd == d {
			return i
		}
	}
	return -1
}

// EntityID identifies an entity within a KB.
type EntityID int32

// Entity is a real-world concept with a unique interpretation, as
// produced by the Entity Recognition and Disambiguation step.
type Entity struct {
	ID     EntityID
	Label  string // canonical name, e.g. "Michael Phelps"
	URI    string // Wikipedia-like URI, e.g. "wiki:Michael_Phelps"
	Type   string // e.g. "Athlete", "City", "Sports Team"
	Domain Domain
}

// Candidate is one possible interpretation of an anchor.
type Candidate struct {
	Entity     EntityID
	Commonness float64 // prior probability P(entity | anchor)
}

// KB is an immutable knowledge base. Build one with a Builder or use
// Builtin.
type KB struct {
	entities   []Entity
	byLabel    map[string]EntityID
	anchors    map[string][]Candidate // normalized anchor -> candidates
	linkProb   map[string]float64     // normalized anchor -> P(link)
	anchorSpan map[string]int         // first token -> tokens of the longest anchor starting with it
	vocab      map[Domain][]string
	// stemDomains maps a vocabulary word's Porter stem to the domains
	// whose vocabulary holds it: one probe tells a context word's
	// domains.
	stemDomains map[string]DomainSet
	domainOf    []uint8  // entity ID -> its domain's index in Domains
	surface     []string // entity ID -> SurfaceForm of its label
	// byDomain holds each domain's entities in ID order, indexed by
	// the domain's position in Domains.
	byDomain [len(Domains)][]Entity
}

// Builder assembles a KB.
type Builder struct {
	kb   *KB
	errs []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{kb: &KB{
		byLabel:    make(map[string]EntityID),
		anchors:    make(map[string][]Candidate),
		linkProb:   make(map[string]float64),
		anchorSpan: make(map[string]int),
		vocab:      make(map[Domain][]string),
	}}
}

// AddEntity registers an entity and returns its ID. The canonical
// label is automatically added as an anchor with commonness 1 and the
// given link probability.
func (b *Builder) AddEntity(label, typ string, domain Domain, linkProb float64) EntityID {
	kb := b.kb
	if _, dup := kb.byLabel[label]; dup {
		b.errs = append(b.errs, fmt.Errorf("kb: duplicate entity label %q", label))
	}
	di := domainIndex(domain)
	if di < 0 {
		b.errs = append(b.errs, fmt.Errorf("kb: entity %q in unknown domain %q", label, domain))
	}
	id := EntityID(len(kb.entities))
	kb.entities = append(kb.entities, Entity{
		ID:     id,
		Label:  label,
		URI:    "wiki:" + strings.ReplaceAll(label, " ", "_"),
		Type:   typ,
		Domain: domain,
	})
	kb.domainOf = append(kb.domainOf, uint8(di))
	kb.byLabel[label] = id
	b.AddAnchor(label, label, 1.0, linkProb)
	return id
}

// AddAnchor registers a surface form for the entity with the given
// canonical label. Commonness is the prior P(entity|anchor); when an
// anchor maps to several entities their commonness values are
// renormalized at Build time. linkProb is the probability that the
// surface form denotes an entity at all (TAGME's lp, used to discard
// stop-word-like anchors).
func (b *Builder) AddAnchor(anchor, entityLabel string, commonness, linkProb float64) {
	kb := b.kb
	id, ok := kb.byLabel[entityLabel]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("kb: anchor %q references unknown entity %q", anchor, entityLabel))
		return
	}
	norm := NormalizeAnchor(anchor)
	if norm == "" {
		b.errs = append(b.errs, fmt.Errorf("kb: empty anchor for entity %q", entityLabel))
		return
	}
	for _, c := range kb.anchors[norm] {
		if c.Entity == id {
			b.errs = append(b.errs, fmt.Errorf("kb: duplicate anchor %q for entity %q", anchor, entityLabel))
			return
		}
	}
	kb.anchors[norm] = append(kb.anchors[norm], Candidate{Entity: id, Commonness: commonness})
	if lp, seen := kb.linkProb[norm]; !seen || linkProb > lp {
		kb.linkProb[norm] = linkProb
	}
	tokens := strings.Fields(norm)
	kb.anchorSpan[tokens[0]] = max(kb.anchorSpan[tokens[0]], len(tokens))
}

// AddVocab appends topical vocabulary words to a domain.
func (b *Builder) AddVocab(domain Domain, words ...string) {
	if domainIndex(domain) < 0 {
		b.errs = append(b.errs, fmt.Errorf("kb: vocabulary for unknown domain %q", domain))
		return
	}
	b.kb.vocab[domain] = append(b.kb.vocab[domain], words...)
}

// Build finalizes the KB, renormalizing commonness per anchor.
func (b *Builder) Build() (*KB, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	kb := b.kb
	for norm, cands := range kb.anchors {
		var sum float64
		for _, c := range cands {
			sum += c.Commonness
		}
		if sum <= 0 {
			return nil, fmt.Errorf("kb: anchor %q has non-positive total commonness", norm)
		}
		for i := range cands {
			cands[i].Commonness /= sum
		}
		// Deterministic order: highest commonness first, then ID.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Commonness != cands[j].Commonness {
				return cands[i].Commonness > cands[j].Commonness
			}
			return cands[i].Entity < cands[j].Entity
		})
		kb.anchors[norm] = cands
	}
	kb.stemDomains = make(map[string]DomainSet)
	for i, d := range Domains {
		for _, w := range kb.vocab[d] {
			kb.stemDomains[textproc.Stem(w)] |= 1 << i
		}
	}
	var counts [len(Domains)]int
	for _, di := range kb.domainOf {
		counts[di]++
	}
	for i, n := range counts {
		kb.byDomain[i] = make([]Entity, 0, n)
	}
	kb.surface = make([]string, len(kb.entities))
	for i, e := range kb.entities {
		di := kb.domainOf[i]
		kb.byDomain[di] = append(kb.byDomain[di], e)
		kb.surface[i] = SurfaceForm(e.Label)
	}
	return kb, nil
}

// MustBuild is Build that panics on error; intended for the embedded
// builtin catalog.
func (b *Builder) MustBuild() *KB {
	kb, err := b.Build()
	if err != nil {
		panic(err)
	}
	return kb
}

// NormalizeAnchor lowercases an anchor and reduces it to its word
// tokens, using the same tokenizer applied to resource text, so that
// anchors compare equal to the token sequences produced at annotation
// time ("Python (programming language)" → "python programming
// language").
func NormalizeAnchor(anchor string) string {
	return strings.Join(textproc.Tokenize(strings.ToLower(anchor)), " ")
}

// SurfaceForm returns the natural surface form of an entity label for
// text generation: the label with any disambiguating parenthetical
// stripped and lowercased ("Queen (band)" → "queen").
func SurfaceForm(label string) string {
	if i := strings.Index(label, " ("); i > 0 {
		label = label[:i]
	}
	return strings.ToLower(label)
}

// Entity returns the entity with the given ID.
func (k *KB) Entity(id EntityID) Entity {
	return k.entities[id]
}

// Len returns the number of entities.
func (k *KB) Len() int { return len(k.entities) }

// Entities returns all entities (a copy).
func (k *KB) Entities() []Entity {
	out := make([]Entity, len(k.entities))
	copy(out, k.entities)
	return out
}

// Candidates returns the candidate interpretations of a normalized
// anchor, ordered by descending commonness, and its link probability.
// It returns nil when the anchor is unknown.
func (k *KB) Candidates(normAnchor string) ([]Candidate, float64) {
	c, ok := k.anchors[normAnchor]
	if !ok {
		return nil, 0
	}
	return c, k.linkProb[normAnchor]
}

// CandidatesBytes is Candidates for an anchor assembled in a byte
// buffer; the lookup does not copy it into a string.
func (k *KB) CandidatesBytes(normAnchor []byte) ([]Candidate, float64) {
	c, ok := k.anchors[string(normAnchor)]
	if !ok {
		return nil, 0
	}
	return c, k.linkProb[string(normAnchor)]
}

// AnchorSpan returns the length, in tokens, of the longest anchor whose
// first token is first, or 0 when no anchor starts with it: the
// spotting window at a token, known before any candidate anchor is
// assembled.
func (k *KB) AnchorSpan(first string) int { return k.anchorSpan[first] }

// Vocab returns the topical vocabulary of a domain.
func (k *KB) Vocab(d Domain) []string { return k.vocab[d] }

// StemDomains returns the domains whose vocabulary holds a word with
// the given Porter stem, so that inflected forms ("restaurants",
// "scored") hit their vocabulary entries.
func (k *KB) StemDomains(stem string) DomainSet { return k.stemDomains[stem] }

// Surface returns SurfaceForm of entity id's label, computed once at
// Build.
func (k *KB) Surface(id EntityID) string { return k.surface[id] }

// DomainIndex returns the position in Domains of entity id's domain.
func (k *KB) DomainIndex(id EntityID) int { return int(k.domainOf[id]) }

// EntitiesInDomain returns the entities of a domain, ordered by ID,
// or nil for a domain outside Domains. The slice is shared and
// allocated once at Build: callers must not modify it.
func (k *KB) EntitiesInDomain(d Domain) []Entity {
	di := domainIndex(d)
	if di < 0 {
		return nil
	}
	return k.byDomain[di]
}
