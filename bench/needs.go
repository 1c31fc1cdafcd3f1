package main

import (
	"fmt"
	"math/rand"

	"expertfind"
	"expertfind/internal/kb"
)

// needGen is the benchmark's own expertise-need generator: a pure
// function of (seed, seq) over the corpus's evaluation queries and the
// knowledge base's vocabulary and entities. It deliberately does not
// import internal/loadgen, which the ROADMAP plans to restructure.
//
// Every workload generates its population of requests with the corpus
// seed and lets --seed only permute it (see permute): which needs are
// asked is part of the pinned system under test, like the corpus; in
// which order, which of them the cache therefore holds when, and what
// the churn edits, is the seeded input. Drawing the needs themselves
// per seed was tried first and moved find_kb_per_op by 3 % and the
// latency quantiles by more between seeds — a difference between
// inputs, which the bounds must not be spent on.
type needGen struct {
	seed    int64
	queries []string
	base    *kb.KB
}

func newNeedGen(seed int64, queries []expertfind.Query) *needGen {
	g := &needGen{seed: seed, base: kb.Builtin()}
	for _, q := range queries {
		g.queries = append(g.queries, q.Text)
	}
	return g
}

// needTemplates vary in how many vocabulary words and entity mentions
// they carry, because the cost of a find is the number of postings its
// terms and entities select: short needs are the median, long ones the
// tail.
var needTemplates = []struct {
	text         string
	words, names int
}{
	{"Who knows about %s?", 1, 0},
	{"Can someone recommend a good %s, something like %s?", 1, 1},
	{"Who can help me with %s and %s?", 2, 0},
	{"I am looking for advice about %s and %s, maybe from a fan of %s.", 2, 1},
	{"What should I know about %s, %s and %s before I talk to people who follow %s or %s?", 3, 2},
}

// mix is the splitmix64 finalizer: it decorrelates the per-request
// RNG streams of consecutive sequence numbers.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (g *needGen) rng(seq uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seq ^ uint64(g.seed)*0x9e3779b97f4a7c15))))
}

// need returns request seq's need. One in five is an evaluation query
// verbatim (the paper's own needs); the rest are composed from one
// domain's vocabulary and entities.
func (g *needGen) need(seq uint64) string {
	r := g.rng(seq)
	if len(g.queries) > 0 && r.Intn(5) == 0 {
		return g.queries[r.Intn(len(g.queries))]
	}
	d := kb.Domains[r.Intn(len(kb.Domains))]
	vocab, ents := g.base.Vocab(d), g.base.EntitiesInDomain(d)
	t := needTemplates[r.Intn(len(needTemplates))]
	args := make([]any, 0, t.words+t.names)
	for i := 0; i < t.words; i++ {
		args = append(args, vocab[r.Intn(len(vocab))])
	}
	for i := 0; i < t.names; i++ {
		args = append(args, kb.SurfaceForm(ents[r.Intn(len(ents))].Label))
	}
	return fmt.Sprintf(t.text, args...)
}

// stream returns needs [0, n): the distinct-heavy request stream of
// the in-process workloads.
func (g *needGen) stream(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.need(uint64(i))
	}
	return out
}

// skewed returns n requests over a pool of hot needs under Zipf(s),
// with a tail share of never-repeated needs: the traffic a result
// cache sees. A tail need is a fresh composed need plus a token no
// other request carries, so it can never hit.
func (g *needGen) skewed(n, pool int, s, tail float64) []string {
	hot := g.stream(pool)
	out := make([]string, n)
	for i := range out {
		seq := uint64(pool + i)
		r := g.rng(seq ^ 0x5bd1e995)
		if r.Float64() < tail {
			out[i] = g.need(seq) + fmt.Sprintf(" ref%dx%d", g.seed, i)
			continue
		}
		out[i] = hot[rand.NewZipf(r, s, 1, uint64(pool-1)).Uint64()]
	}
	return out
}

// permute returns the population in the order the seed draws.
func permute(population []string, seed int64) []string {
	out := append([]string(nil), population...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
