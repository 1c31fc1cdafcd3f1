// Package loadgen is the deterministic load and soak harness: it
// samples realistic expertise-need workloads from a corpus's own
// topic and entity distribution, drives the expert-finding system —
// the in-process Finder, the live HTTP /v1/find endpoint, or a real
// multi-process scatter-gather cluster (cluster.go) — with a
// closed-loop (fixed concurrency) runner, and reports throughput, an
// error taxonomy, and log-bucketed latency percentiles. It is the
// engine under cmd/loadtest's correctness scenarios and the -race
// soaks; performance evidence lives in the ledger (bench/), not here.
//
// Determinism is what makes a run replayable: the workload is a pure
// function of (seed, request sequence number), so request n asks the
// same need in every run and on every target, regardless of worker
// interleaving. With a virtual resilience.Clock plus a ServiceModel
// the runner is in simulation mode — latency and phase length come
// from the model, so a soak sizes itself in virtual seconds and its
// counts, error taxonomy and percentiles are identical across runs.
package loadgen

import (
	"fmt"
	"math/rand"

	"expertfind"
	"expertfind/internal/kb"
)

// Source is the corpus-derived material the workload samples from.
type Source struct {
	// Queries are realistic hot needs, typically the corpus's own
	// evaluation query set. They seed the hot pool verbatim.
	Queries []string
	// DomainWeights is the corpus's topic mass per domain (any
	// positive scale); synthetic needs draw their topic from it.
	// Empty weights select a uniform domain mix.
	DomainWeights map[kb.Domain]float64
}

// SystemSource derives a Source from a built System: the evaluation
// queries become the hot set, and each domain is weighted by its
// ground-truth expert mass (a proxy for how much of the corpus talks
// about it).
func SystemSource(sys *expertfind.System) Source {
	src := Source{DomainWeights: make(map[kb.Domain]float64)}
	for _, q := range sys.Queries() {
		src.Queries = append(src.Queries, q.Text)
	}
	for _, d := range kb.Domains {
		experts, err := sys.Experts(string(d))
		if err != nil {
			continue
		}
		if n := len(experts); n > 0 {
			src.DomainWeights[d] = float64(n)
		}
	}
	return src
}

// WorkloadConfig parameterizes need sampling. The zero value selects
// the defaults noted per field.
type WorkloadConfig struct {
	// Seed drives all sampling; equal seeds replay identical request
	// streams. Zero selects seed 1.
	Seed int64
	// HotNeeds is the hot-pool size (default 64): the corpus queries
	// plus synthetic needs composed from the knowledge base's own
	// vocabulary and entities, up to this many.
	HotNeeds int
	// ColdFraction is the probability that a request asks a
	// never-seen-before need made of tokens outside every vocabulary —
	// the zero-match cold tail (default 0.05).
	ColdFraction float64
}

// zipfS is the Zipf skew exponent over the hot pool: higher values
// concentrate more traffic on the hottest needs.
const zipfS = 1.2

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HotNeeds <= 0 {
		c.HotNeeds = 64
	}
	if c.ColdFraction == 0 {
		c.ColdFraction = 0.05
	} else if c.ColdFraction < 0 {
		c.ColdFraction = 0
	}
	return c
}

// Workload deterministically maps request sequence numbers to
// expertise needs. Need is a pure function, safe for concurrent use.
type Workload struct {
	cfg  WorkloadConfig
	pool []string
}

// needTemplates compose synthetic needs from two vocabulary words and
// one entity surface form, mimicking the question register of the
// evaluation set.
var needTemplates = []string{
	"Who can help me with %s and %s, maybe someone who knows %s?",
	"I am looking for advice about %s %s, something like %s.",
	"What should I know about %s before getting into %s like %s?",
	"Can anyone explain how %s relates to %s, for example %s?",
}

// NewWorkload builds the hot pool for a source: the source's queries
// first, then synthetic needs drawn from the knowledge base under the
// source's domain weights, all fixed by cfg.Seed.
func NewWorkload(cfg WorkloadConfig, src Source) *Workload {
	cfg = cfg.withDefaults()
	w := &Workload{cfg: cfg}
	w.pool = append(w.pool, src.Queries...)

	base := kb.Builtin()
	domains, cum := weightedDomains(src.DomainWeights)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for len(w.pool) < cfg.HotNeeds {
		d := pickDomain(rng, domains, cum)
		vocab := base.Vocab(d)
		ents := base.EntitiesInDomain(d)
		if len(vocab) < 2 || len(ents) == 0 {
			continue
		}
		tmpl := needTemplates[rng.Intn(len(needTemplates))]
		w1 := vocab[rng.Intn(len(vocab))]
		w2 := vocab[rng.Intn(len(vocab))]
		ent := kb.SurfaceForm(ents[rng.Intn(len(ents))].Label)
		w.pool = append(w.pool, fmt.Sprintf(tmpl, w1, w2, ent))
	}
	return w
}

// weightedDomains flattens the weight map into parallel slices of
// domains (in kb.Domains order, for determinism) and cumulative
// weights. Empty maps yield a uniform distribution.
func weightedDomains(weights map[kb.Domain]float64) ([]kb.Domain, []float64) {
	var domains []kb.Domain
	var cum []float64
	total := 0.0
	for _, d := range kb.Domains {
		wt := 1.0
		if len(weights) > 0 {
			wt = weights[d]
			if wt <= 0 {
				continue
			}
		}
		total += wt
		domains = append(domains, d)
		cum = append(cum, total)
	}
	return domains, cum
}

func pickDomain(rng *rand.Rand, domains []kb.Domain, cum []float64) kb.Domain {
	if len(domains) == 0 {
		return kb.Domains[0]
	}
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return domains[i]
		}
	}
	return domains[len(domains)-1]
}

// mix is the splitmix64 finalizer, decorrelating per-request RNG
// streams from sequential sequence numbers.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rngFor returns the private RNG stream of one request.
func (w *Workload) rngFor(seq uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seq ^ uint64(w.cfg.Seed)*0x9e3779b97f4a7c15))))
}

// Need returns the expertise need of request seq — a pure function of
// (workload seed, seq), independent of which worker asks or when.
// A ColdFraction of requests get a fresh unseen need (Zipf cold
// tail); the rest draw from the hot pool under the Zipf skew.
func (w *Workload) Need(seq uint64) string {
	rng := w.rngFor(seq)
	if rng.Float64() < w.cfg.ColdFraction || len(w.pool) == 0 {
		return coldNeed(rng)
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(w.pool)-1))
	return w.pool[z.Uint64()]
}

// Pool returns a copy of the hot need pool, hottest rank first.
func (w *Workload) Pool() []string {
	out := make([]string, len(w.pool))
	copy(out, w.pool)
	return out
}

// coldNeed fabricates a need whose tokens appear in no vocabulary, so
// it exercises the zero-match path end to end (analysis still runs,
// matching finds nothing).
func coldNeed(rng *rand.Rand) string {
	word := func() string {
		n := 6 + rng.Intn(5)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	return fmt.Sprintf("Does anyone know about %s %s and %s?", word(), word(), word())
}
