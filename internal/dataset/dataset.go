// Package dataset builds the evaluation dataset of the paper (§3.1):
// an expert-candidate pool active on Facebook, Twitter and LinkedIn,
// a corpus of their social resources, 30 expertise needs over seven
// domains, and the self-assessment ground truth.
//
// The paper recruited 40 volunteers and crawled ~330k resources
// through the platform APIs; offline, this package generates a
// statistically equivalent corpus with a deterministic, seeded
// generator whose per-network structure is produced by the
// internal/platform simulators. The ground truth follows the paper's
// construction exactly: each candidate has a 7-point Likert expertise
// level per domain, and the domain experts are the candidates whose
// level exceeds the domain average.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"expertfind/internal/kb"
	"expertfind/internal/platform"
	"expertfind/internal/socialgraph"
	"expertfind/internal/webcontent"
)

// Config parameterizes dataset generation. The zero value selects the
// paper-calibrated defaults.
type Config struct {
	// Seed drives all randomness; equal seeds generate identical
	// datasets. Zero selects seed 1.
	Seed int64
	// NumCandidates is the size of the expert-candidate pool
	// (default 40, as recruited in the paper).
	NumCandidates int
	// Scale multiplies all resource volumes; 1.0 (default) generates
	// ≈20k resources. The paper's crawl is roughly Scale 15.
	Scale float64
	// SilentExperts is the number of candidates whose social activity
	// exposes almost none of their expertise (default 8, matching the
	// unreliable users of Fig. 10).
	SilentExperts int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumCandidates == 0 {
		c.NumCandidates = 40
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.SilentExperts == 0 {
		c.SilentExperts = 8
	}
	if c.SilentExperts > c.NumCandidates/2 {
		c.SilentExperts = c.NumCandidates / 2
	}
	return c
}

// Query is one expertise need with its reference domain.
type Query struct {
	ID     int
	Text   string
	Domain kb.Domain
}

// Dataset is a generated evaluation dataset.
type Dataset struct {
	Config Config
	// Identity names the source the dataset was generated or loaded
	// from: datasets of equal identity hold equal corpora. Generate
	// derives it from the resolved Config, corpusio from a digest of
	// the file's bytes; it is empty for a dataset assembled otherwise.
	Identity   string
	Graph      *socialgraph.Graph
	Web        *webcontent.Web
	KB         *kb.KB
	Queries    []Query
	Candidates []socialgraph.UserID

	levels         map[socialgraph.UserID][7]int // Likert level per domain index
	expressiveness map[socialgraph.UserID]float64
	activity       map[socialgraph.UserID]float64
	fanLevels      map[socialgraph.UserID][7]float64
	domainMeans    [7]float64
}

// expertFraction is the target fraction of domain experts per domain,
// calibrated to the distribution of Fig. 5b (≈17 experts per domain on
// average; few in Location, many in Technology & games).
var expertFraction = map[kb.Domain]float64{
	kb.ComputerEngineering: 0.45,
	kb.Location:            0.22,
	kb.MoviesTV:            0.42,
	kb.Music:               0.35,
	kb.Science:             0.38,
	kb.Sport:               0.50,
	kb.Technology:          0.60,
}

// domainExpression discounts how much of their expertise people
// actually express for a domain: many self-declared music and sport
// experts never post about it, and people hardly write about biology
// or electrical conductors on their walls (§3.7).
var domainExpression = map[kb.Domain]float64{
	kb.ComputerEngineering: 1.00,
	kb.Location:            0.90,
	kb.MoviesTV:            1.00,
	kb.Music:               0.60,
	kb.Science:             0.70,
	kb.Sport:               0.75,
	kb.Technology:          1.00,
}

func domainIndex(d kb.Domain) int {
	for i, dd := range kb.Domains {
		if dd == d {
			return i
		}
	}
	panic(fmt.Sprintf("dataset: unknown domain %q", d))
}

// Generate builds a dataset from the configuration, stamped as an
// exact copy of it: Identity names the resolved Config, and so does
// the graph's origin (socialgraph.Graph.StampOrigin).
func Generate(cfg Config) *Dataset {
	d := generate(cfg)
	d.Identity = fmt.Sprintf("generated:seed=%d,candidates=%d,scale=%g,silent=%d",
		d.Config.Seed, d.Config.NumCandidates, d.Config.Scale, d.Config.SilentExperts)
	d.Graph.StampOrigin(d.Identity)
	return d
}

// generate is Generate without the identity and the stamp.
func generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	d := &Dataset{
		Config:         cfg,
		Graph:          socialgraph.New(),
		Web:            webcontent.NewWeb(),
		KB:             kb.Builtin(),
		Queries:        Queries(),
		levels:         make(map[socialgraph.UserID][7]int),
		expressiveness: make(map[socialgraph.UserID]float64),
		activity:       make(map[socialgraph.UserID]float64),
		fanLevels:      make(map[socialgraph.UserID][7]float64),
	}

	gtRand := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.NumCandidates; i++ {
		u := d.Graph.AddUser(fmt.Sprintf("candidate-%02d", i+1), true)
		d.Candidates = append(d.Candidates, u)
		d.levels[u] = drawLevels(gtRand)
		d.activity[u] = math.Exp(0.8 * gtRand.NormFloat64())
		d.expressiveness[u] = 0.45 + 0.55*gtRand.Float64()
		d.fanLevels[u] = drawFanLevels(gtRand)
	}
	// Silent experts: pick the first SilentExperts candidates by a
	// deterministic shuffle and collapse their expressiveness.
	perm := gtRand.Perm(cfg.NumCandidates)
	for _, i := range perm[:cfg.SilentExperts] {
		d.expressiveness[d.Candidates[i]] = 0.03 + 0.09*gtRand.Float64()
	}
	d.computeDomainMeans()

	// Populate the three platforms.
	textRand := rand.New(rand.NewSource(cfg.Seed + 1000))
	ctx := &platform.Context{
		Graph:      d.Graph,
		Web:        d.Web,
		KB:         d.KB,
		Text:       platform.NewTextGen(d.KB, d.Web, textRand),
		Candidates: d.Candidates,
		Interest:   d.Interest,
		Skill:      d.Skill,
		Activity:   func(u socialgraph.UserID) float64 { return d.activity[u] },
		Scale:      cfg.Scale,
	}
	gens := []platform.Generator{
		platform.DefaultFacebook(),
		platform.DefaultTwitter(),
		platform.DefaultLinkedIn(),
	}
	for i, gen := range gens {
		ctx.Rand = rand.New(rand.NewSource(cfg.Seed + int64(i+2)*7919))
		gen.Generate(ctx)
	}
	return d
}

// drawLevels draws the 7-point Likert self-assessment per domain: with
// the domain's expert fraction the level comes from a high block
// (4–7), otherwise from a low block (1–2), reproducing the expert
// counts of Fig. 5b. The gap between the blocks keeps the
// above-average classification aligned with the high block: the domain
// mean always lands strictly between 2 and 4 for expert fractions in
// (0.14, 0.65), so exactly the high-block candidates are experts.
func drawLevels(r *rand.Rand) [7]int {
	var out [7]int
	for i, dom := range kb.Domains {
		if r.Float64() < expertFraction[dom] {
			out[i] = drawWeighted(r, []int{4, 5, 6, 7}, []float64{0.20, 0.25, 0.30, 0.25})
		} else {
			out[i] = drawWeighted(r, []int{1, 2}, []float64{0.40, 0.60})
		}
	}
	return out
}

func drawWeighted(r *rand.Rand, vals []int, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

func (d *Dataset) computeDomainMeans() {
	for i := range kb.Domains {
		sum := 0.0
		for _, u := range d.Candidates {
			sum += float64(d.levels[u][i])
		}
		d.domainMeans[i] = sum / float64(len(d.Candidates))
	}
}

// Level returns the candidate's 7-point self-assessed expertise level
// in a domain.
func (d *Dataset) Level(u socialgraph.UserID, dom kb.Domain) int {
	return d.levels[u][domainIndex(dom)]
}

// IsExpert reports whether the candidate is a domain expert: a
// candidate whose level exceeds the domain average (§3.1).
func (d *Dataset) IsExpert(u socialgraph.UserID, dom kb.Domain) bool {
	i := domainIndex(dom)
	return float64(d.levels[u][i]) > d.domainMeans[i]
}

// Experts returns the domain experts, ordered by candidate ID.
func (d *Dataset) Experts(dom kb.Domain) []socialgraph.UserID {
	var out []socialgraph.UserID
	for _, u := range d.Candidates {
		if d.IsExpert(u, dom) {
			out = append(out, u)
		}
	}
	return out
}

// Skill returns the candidate's latent expertise in [0, 1] for a
// domain: the normalized Likert level.
func (d *Dataset) Skill(u socialgraph.UserID, dom kb.Domain) float64 {
	return float64(d.Level(u, dom)-1) / 6
}

// Interest returns the candidate's propensity to produce content
// about a domain: latent skill shaped by personal expressiveness and
// the domain's expression discount (silent experts have near-zero
// interest in every domain regardless of skill), plus fan enthusiasm.
//
// Fan enthusiasm is the precision-eroding noise channel of §3.7: a
// minority of candidates post abundantly about domains they are not
// experts in (the football fan who never played, the gadget follower
// with no engineering background), so topical activity is genuine but
// misleading evidence — exactly why the paper's absolute precision
// stays well below 1.
func (d *Dataset) Interest(u socialgraph.UserID, dom kb.Domain) float64 {
	s := math.Pow(d.Skill(u, dom), 1.7)
	if fan := d.fanLevels[u][domainIndex(dom)]; fan > s {
		s = fan
	}
	return d.expressiveness[u] * s * domainExpression[dom]
}

// drawFanLevels marks each (candidate, domain) pair as fan enthusiasm
// with 35% probability, at an intensity overlapping genuine expert
// interest.
func drawFanLevels(r *rand.Rand) [7]float64 {
	var out [7]float64
	for i := range out {
		if r.Float64() < 0.35 {
			out[i] = 0.35 + 0.55*r.Float64()
		}
	}
	return out
}

// Expressiveness returns the fraction of their expertise the
// candidate exposes on social platforms.
func (d *Dataset) Expressiveness(u socialgraph.UserID) float64 {
	return d.expressiveness[u]
}

// Activity returns the candidate's posting-volume multiplier.
func (d *Dataset) Activity(u socialgraph.UserID) float64 {
	return d.activity[u]
}

// WithGraph returns a shallow copy of the dataset whose corpus is
// replaced by g — typically a partial crawl of the original graph.
// Ground truth, queries and the synthetic Web are shared, so g must
// use the same user identifiers (the crawler preserves them).
func (d *Dataset) WithGraph(g *socialgraph.Graph) *Dataset {
	out := *d
	out.Graph, out.Identity = g, ""
	return &out
}

// QueriesInDomain returns the queries whose reference domain is dom.
func (d *Dataset) QueriesInDomain(dom kb.Domain) []Query {
	var out []Query
	for _, q := range d.Queries {
		if q.Domain == dom {
			out = append(out, q)
		}
	}
	return out
}
