package main

// The question-routing layer that the paper's expert finder plugs into
// (§1, §5: the CrowdSearcher platform): a stream of expertise needs is
// dispatched to small crowds of top-ranked experts, while respecting
// the social contract of crowd-searching — contacts answer out of
// goodwill, so each expert has a bounded number of open questions and
// rests between assignments.
//
// The router is deliberately independent from how experts are ranked:
// it consumes any Ranker, so it works with the paper's social
// vector-space finder, the Balog baselines, or a stub in tests.

import (
	"fmt"
	"sort"
)

// Ranker produces a ranked expert list for an expertise need; the
// paper's Finder satisfies this shape through a small adapter.
type Ranker interface {
	Rank(need string) ([]RankedExpert, error)
}

// RankedExpert is one candidate with their expertise score.
type RankedExpert struct {
	Name  string
	Score float64
}

// RankerFunc adapts a function to the Ranker interface.
type RankerFunc func(need string) ([]RankedExpert, error)

// Rank implements Ranker.
func (f RankerFunc) Rank(need string) ([]RankedExpert, error) { return f(need) }

// RouterConfig tunes the routing policy. The zero value selects the
// defaults in parentheses.
type RouterConfig struct {
	// CrowdSize is the number of experts asked per question (3).
	CrowdSize int
	// MaxOpen is the maximum number of unanswered questions a single
	// expert may hold (2).
	MaxOpen int
	// Cooldown is how many subsequent assignments an expert sits out
	// after completing a question (1); it spreads load across the
	// candidate pool instead of hammering the top expert.
	Cooldown int
	// MinScoreRatio drops experts scoring below this fraction of the
	// question's best expert (0.1): a barely-matching contact is not
	// worth bothering.
	MinScoreRatio float64
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.CrowdSize == 0 {
		c.CrowdSize = 3
	}
	if c.MaxOpen == 0 {
		c.MaxOpen = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 1
	}
	if c.MinScoreRatio == 0 {
		c.MinScoreRatio = 0.1
	}
	return c
}

// Assignment is a routed question.
type Assignment struct {
	ID       int64
	Need     string
	Crowd    []string // the experts asked, best first
	Partial  bool     // fewer experts than CrowdSize were available
	Fallback bool     // nobody was available: route to a generic crowd platform
}

// Router dispatches questions to expert crowds. It is not safe for
// concurrent use; callers serialize access (a single dispatcher
// goroutine is the intended shape).
type Router struct {
	ranker Ranker
	cfg    RouterConfig

	nextID   int64
	open     map[int64]*Assignment
	load     map[string]int // open questions per expert
	cooldown map[string]int // assignments to skip per expert
	answered map[string]int // lifetime answered count per expert
}

// New returns a Router over the given ranker.
func NewRouter(ranker Ranker, cfg RouterConfig) *Router {
	return &Router{
		ranker:   ranker,
		cfg:      cfg.withDefaults(),
		open:     make(map[int64]*Assignment),
		load:     make(map[string]int),
		cooldown: make(map[string]int),
		answered: make(map[string]int),
	}
}

// Ask routes one question to a crowd of available experts. When no
// expert is available the assignment comes back with Fallback set —
// the caller should use a generic crowdsourcing platform instead, the
// paper's framing of when anonymous crowds beat social ones.
func (r *Router) Ask(need string) (Assignment, error) {
	ranked, err := r.ranker.Rank(need)
	if err != nil {
		return Assignment{}, fmt.Errorf("router: ranking %q: %w", need, err)
	}

	var crowd []string
	var best float64
	if len(ranked) > 0 {
		best = ranked[0].Score
	}
	for _, e := range ranked {
		if len(crowd) == r.cfg.CrowdSize {
			break
		}
		if e.Score < best*r.cfg.MinScoreRatio {
			break // the remaining experts barely match
		}
		if r.cooldown[e.Name] > 0 {
			continue
		}
		if r.load[e.Name] >= r.cfg.MaxOpen {
			continue
		}
		crowd = append(crowd, e.Name)
	}

	r.nextID++
	a := Assignment{
		ID:       r.nextID,
		Need:     need,
		Crowd:    crowd,
		Partial:  len(crowd) > 0 && len(crowd) < r.cfg.CrowdSize,
		Fallback: len(crowd) == 0,
	}
	for _, name := range crowd {
		r.load[name]++
	}
	// Cooldowns tick down once per routed question.
	for name, c := range r.cooldown {
		if c <= 1 {
			delete(r.cooldown, name)
		} else {
			r.cooldown[name] = c - 1
		}
	}
	if !a.Fallback {
		r.open[a.ID] = &a
	}
	return a, nil
}

// Complete records that an expert answered (or declined) an open
// question, freeing their budget slot and starting their cooldown.
func (r *Router) Complete(id int64, expert string) error {
	a, ok := r.open[id]
	if !ok {
		return fmt.Errorf("router: unknown or closed assignment %d", id)
	}
	found := false
	// Build a fresh slice: the caller may still hold the Assignment
	// returned by Ask, whose Crowd shares this backing array.
	remaining := make([]string, 0, len(a.Crowd))
	for _, name := range a.Crowd {
		if name == expert && !found {
			found = true
			continue
		}
		remaining = append(remaining, name)
	}
	if !found {
		return fmt.Errorf("router: expert %q is not assigned to question %d", expert, id)
	}
	a.Crowd = remaining
	if r.load[expert] > 0 {
		r.load[expert]--
	}
	r.cooldown[expert] = r.cfg.Cooldown
	r.answered[expert]++
	if len(a.Crowd) == 0 {
		delete(r.open, id)
	}
	return nil
}

// OpenQuestions returns the number of assignments with pending
// answers.
func (r *Router) OpenQuestions() int { return len(r.open) }

// Load returns the number of open questions held by an expert.
func (r *Router) Load(expert string) int { return r.load[expert] }

// Answered returns the lifetime number of questions an expert
// completed.
func (r *Router) Answered(expert string) int { return r.answered[expert] }

// Leaderboard returns experts by lifetime answered count, descending
// (ties by name), the engagement view a crowd-searching UI shows.
func (r *Router) Leaderboard() []RankedExpert {
	out := make([]RankedExpert, 0, len(r.answered))
	for name, n := range r.answered {
		out = append(out, RankedExpert{Name: name, Score: float64(n)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}
