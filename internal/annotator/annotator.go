// Package annotator implements the Entity Recognition and
// Disambiguation step of the analysis pipeline (paper §2.3). It is a
// faithful functional substitute for the TAGME short-text annotator
// [Ferragina & Scaiella, CIKM 2010] the paper uses: it spots anchors
// from a knowledge-base dictionary, disambiguates each mention by
// combining the candidate's commonness prior with the coherence of its
// domain with the rest of the text, and returns a Wikipedia-like URI
// plus a disambiguation confidence (dScore) per mention — exactly the
// contract consumed by the resource-scoring formula (Eq. 1–2).
package annotator

import (
	"strings"

	"expertfind/internal/kb"
	"expertfind/internal/textproc"
)

// Options configures an Annotator. Zero values select the defaults.
type Options struct {
	// MinLinkProb discards anchors whose link probability is below
	// this threshold (TAGME's lp filter for stop-word-like surface
	// forms). Default 0.15.
	MinLinkProb float64
}

// minDScore discards annotations whose disambiguation confidence is
// below this threshold (TAGME's rho pruning).
const minDScore = 0.10

func (o *Options) withDefaults() Options {
	out := *o
	if out.MinLinkProb == 0 {
		out.MinLinkProb = 0.15
	}
	return out
}

// Annotation is a disambiguated entity mention.
type Annotation struct {
	Entity kb.Entity
	Anchor string  // the matched surface form (normalized)
	Start  int     // first token of the mention (inclusive)
	End    int     // one past the last token of the mention
	DScore float64 // disambiguation confidence in (0, 1]
}

// Annotator recognizes and disambiguates entity mentions in short
// texts.
type Annotator struct {
	kb   *kb.KB
	opts Options
}

// New returns an Annotator over the given knowledge base.
func New(k *kb.KB, opts Options) *Annotator {
	return &Annotator{kb: k, opts: opts.withDefaults()}
}

// spot is an anchor occurrence before disambiguation.
type spot struct {
	anchor     string
	start, end int
	cands      []kb.Candidate
}

// Annotate recognizes entity mentions in text and disambiguates each
// one, returning annotations in order of appearance. Mentions whose
// confidence falls below minDScore are pruned.
func (a *Annotator) Annotate(text string) []Annotation {
	t := textproc.NewText(text)
	return a.AnnotateText(&t)
}

// AnnotateText is Annotate over a text the caller has already
// tokenized, so that one tokenization serves the annotator and the
// term counter alike.
func (a *Annotator) AnnotateText(t *textproc.Text) []Annotation {
	spots := a.spotAnchors(t.Tokens)
	if len(spots) == 0 {
		return nil
	}

	ctx := a.contextProfile(t, spots)

	var out []Annotation
	work := tally{votes: make(map[kb.Domain]float64, len(kb.Domains))}
	for i, sp := range spots {
		if ann, ok := a.disambiguate(sp, spots, i, ctx, &work); ok {
			out = append(out, ann)
		}
	}
	return out
}

// tally is disambiguate's working memory, allocated once per text and
// overwritten for every spot.
type tally struct {
	votes  map[kb.Domain]float64 // coherence votes per domain
	scores []float64             // score per candidate of the spot
}

// spotAnchors finds non-overlapping, longest-first anchor matches. The
// window at a token is as long as the longest anchor starting with
// that token, so a token that starts none costs one lookup and no
// candidate anchor is assembled that could not match.
func (a *Annotator) spotAnchors(tokens []string) []spot {
	var spots []spot
	for i := 0; i < len(tokens); {
		n := min(a.kb.AnchorSpan(tokens[i]), len(tokens)-i)
		for ; n >= 1; n-- {
			anchor := tokens[i]
			if n > 1 {
				anchor = strings.Join(tokens[i:i+n], " ")
			}
			cands, lp := a.kb.Candidates(anchor)
			if cands != nil && lp >= a.opts.MinLinkProb {
				spots = append(spots, spot{anchor: anchor, start: i, end: i + n, cands: cands})
				break
			}
		}
		i += max(n, 1)
	}
	return spots
}

// contextProfile counts, per domain, the topical-vocabulary words
// occurring in the text. Token comparison happens on raw lowercase
// surface forms, matching how vocabularies are stored.
func (a *Annotator) contextProfile(t *textproc.Text, spots []spot) map[kb.Domain]float64 {
	inSpot := make([]bool, len(t.Tokens))
	for _, sp := range spots {
		for i := sp.start; i < sp.end; i++ {
			inSpot[i] = true
		}
	}
	ctx := make(map[kb.Domain]float64, len(kb.Domains))
	for i := range t.Tokens {
		if inSpot[i] {
			continue
		}
		stem := t.Stem(i)
		for _, d := range kb.Domains {
			if a.kb.InVocabStem(d, stem) {
				ctx[d]++
			}
		}
	}
	return ctx
}

// disambiguate chooses the interpretation of one spot. Each candidate
// is scored by its commonness prior boosted by the coherence of its
// domain with (a) the topical context words and (b) the other spots'
// dominant interpretations — a voting scheme in the spirit of TAGME's
// relatedness votes. The dScore is the winner's share of the total
// candidate mass, attenuated when the text gives no topical support.
func (a *Annotator) disambiguate(sp spot, spots []spot, self int, ctx map[kb.Domain]float64, t *tally) (Annotation, bool) {
	votes := t.votes
	clear(votes)
	for d, n := range ctx {
		votes[d] += n
	}
	for j, other := range spots {
		if j == self {
			continue
		}
		// The dominant candidate of every other spot votes for its
		// domain with its commonness as weight.
		best := other.cands[0]
		votes[a.kb.Entity(best.Entity).Domain] += best.Commonness
	}

	// Context dominates the commonness prior: a candidate whose domain
	// gets no votes keeps only a small fraction of its prior, so that
	// topical evidence can overturn a popular-by-default reading
	// ("milan" → AC Milan in a football post).
	const priorFloor = 0.15
	var total float64
	scores := t.scores[:0]
	for _, c := range sp.cands {
		boost := coherenceBoost(votes[a.kb.Entity(c.Entity).Domain])
		score := c.Commonness * (priorFloor + boost)
		scores = append(scores, score)
		total += score
	}
	t.scores = scores

	bestIdx := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[bestIdx] {
			bestIdx = i
		}
	}
	winner := sp.cands[bestIdx]
	winnerEnt := a.kb.Entity(winner.Entity)

	share := scores[bestIdx] / total
	support := coherenceBoost(votes[winnerEnt.Domain])
	dScore := share * (0.5 + 0.5*support)
	if dScore < minDScore {
		return Annotation{}, false
	}
	if dScore > 1 {
		dScore = 1
	}
	return Annotation{
		Entity: winnerEnt,
		Anchor: sp.anchor,
		Start:  sp.start,
		End:    sp.end,
		DScore: dScore,
	}, true
}

// coherenceBoost maps a raw vote count to [0,1] with diminishing
// returns: 0 votes → 0, 1 vote → 0.33, 2 → 0.5, 4 → 0.67, ∞ → 1.
func coherenceBoost(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v / (v + 2)
}
