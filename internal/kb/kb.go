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
// paper's tables.
var Domains = []Domain{
	ComputerEngineering, Location, MoviesTV, Music, Science, Sport, Technology,
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
	vocabStems map[Domain]map[string]struct{}
	maxTokens  int // longest anchor, in tokens
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
	id := EntityID(len(kb.entities))
	kb.entities = append(kb.entities, Entity{
		ID:     id,
		Label:  label,
		URI:    "wiki:" + strings.ReplaceAll(label, " ", "_"),
		Type:   typ,
		Domain: domain,
	})
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
	kb.maxTokens = max(kb.maxTokens, len(tokens))
	kb.anchorSpan[tokens[0]] = max(kb.anchorSpan[tokens[0]], len(tokens))
}

// AddVocab appends topical vocabulary words to a domain.
func (b *Builder) AddVocab(domain Domain, words ...string) {
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
	kb.vocabStems = make(map[Domain]map[string]struct{}, len(kb.vocab))
	for d, words := range kb.vocab {
		stems := make(map[string]struct{}, len(words))
		for _, w := range words {
			stems[textproc.Stem(w)] = struct{}{}
		}
		kb.vocabStems[d] = stems
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

// EntityByLabel returns the entity with the given canonical label.
func (k *KB) EntityByLabel(label string) (Entity, bool) {
	id, ok := k.byLabel[label]
	if !ok {
		return Entity{}, false
	}
	return k.entities[id], true
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

// MaxAnchorTokens returns the length, in tokens, of the longest
// anchor, bounding the spotting window.
func (k *KB) MaxAnchorTokens() int { return k.maxTokens }

// AnchorSpan returns the length, in tokens, of the longest anchor whose
// first token is first, or 0 when no anchor starts with it: the
// spotting window at a token, known before any candidate anchor is
// assembled.
func (k *KB) AnchorSpan(first string) int { return k.anchorSpan[first] }

// Vocab returns the topical vocabulary of a domain.
func (k *KB) Vocab(d Domain) []string { return k.vocab[d] }

// InVocab reports whether word belongs to the vocabulary of domain d.
// The comparison is on lowercase surface forms.
func (k *KB) InVocab(d Domain, word string) bool {
	for _, w := range k.vocab[d] {
		if w == word {
			return true
		}
	}
	return false
}

// InVocabStem reports whether a Porter stem matches the stemmed
// vocabulary of domain d, so that inflected forms ("restaurants",
// "scored") hit their vocabulary entries.
func (k *KB) InVocabStem(d Domain, stem string) bool {
	_, ok := k.vocabStems[d][stem]
	return ok
}

// EntitiesInDomain returns the entities of a domain, ordered by ID.
func (k *KB) EntitiesInDomain(d Domain) []Entity {
	var out []Entity
	for _, e := range k.entities {
		if e.Domain == d {
			out = append(out, e)
		}
	}
	return out
}
