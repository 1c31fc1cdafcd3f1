package experiments

import (
	"fmt"
	"strings"

	"expertfind/internal/crawler"
	"expertfind/internal/faults"
	"expertfind/internal/metrics"
	"expertfind/internal/socialgraph"
)

// FaultRow is one failure-rate level of the fault-tolerance sweep.
type FaultRow struct {
	// FailureRate is the combined per-call probability of an injected
	// failure (⅔ transient, ⅓ rate-limited).
	FailureRate float64
	// ResourcesBare / Resources are the crawled corpus sizes without
	// and with the retry/breaker stack.
	ResourcesBare int
	Resources     int
	Retries       int
	GaveUp        int
	BreakerTrips  int
	// Spearman is the mean (over queries) rank correlation between
	// the ranking computed on the hardened faulted crawl and the one
	// computed on the pristine full-access corpus.
	Spearman float64
	// M are the retrieval metrics of the hardened faulted crawl.
	M Metrics
}

// FaultTolerance charts how ranking quality degrades as the platform
// APIs get flakier — the §3.7 robustness-to-incompleteness question
// under *transient* incompleteness (failed calls) rather than just
// *policy* incompleteness (privacy). At every failure rate the corpus
// is re-crawled twice through the fault-injecting API — once with a
// bare client, once through the retry + rate-limit + breaker stack —
// and the full pipeline is re-run on the hardened crawl.
type FaultTolerance struct {
	Rows []FaultRow
}

// FaultSweep parameterizes RunFaultSweep.
type FaultSweep struct {
	// Rates are the combined failure rates to sweep.
	Rates []float64
	// Seed drives the injected fault draws.
	Seed int64
	// Res is the hardened client's resilience stack.
	Res crawler.Resilience
}

// DefaultFaultSweep sweeps a healthy API up to one failing every
// other call, with the default SDK-style stack.
func DefaultFaultSweep() FaultSweep {
	return FaultSweep{
		Rates: []float64{0, 0.05, 0.1, 0.25, 0.5},
		Seed:  23,
		Res:   crawler.DefaultResilience,
	}
}

// RunFaultTolerance runs the default sweep.
func RunFaultTolerance(s *System) *FaultTolerance {
	return RunFaultSweep(s, DefaultFaultSweep())
}

// RunFaultSweep runs the sweep with explicit parameters. Like the
// crawl-robustness experiment it rebuilds the analysis index once per
// level, so it is expensive (≈ one corpus build per rate).
func RunFaultSweep(s *System, sw FaultSweep) *FaultTolerance {
	p := networkParams(nil, 2)
	baseline := make([][]socialgraph.UserID, len(s.DS.Queries))
	for i, q := range s.DS.Queries {
		baseline[i] = rankedUsers(s.Finder.FindAnalyzed(s.need(q), p))
	}

	out := &FaultTolerance{}
	for _, rate := range sw.Rates {
		cfg := faults.Config{
			Seed:          sw.Seed,
			TransientRate: rate * 2 / 3,
			RateLimitRate: rate / 3,
		}
		bare, _ := crawler.CrawlAPI(faults.Wrap(s.DS.Graph, cfg), crawler.FullAccess, crawler.Resilience{})
		hardened, stats := crawler.CrawlAPI(faults.Wrap(s.DS.Graph, cfg), crawler.FullAccess, sw.Res)
		partial := mustBuild(BuildOptions{Dataset: s.DS.WithGraph(hardened)})

		var rhos []float64
		for i, q := range s.DS.Queries {
			ranked := rankedUsers(partial.Finder.FindAnalyzed(partial.need(q), p))
			rhos = append(rhos, rankAgreement(baseline[i], ranked))
		}
		out.Rows = append(out.Rows, FaultRow{
			FailureRate:   rate,
			ResourcesBare: bare.NumResources(),
			Resources:     hardened.NumResources(),
			Retries:       stats.Retries,
			GaveUp:        stats.GaveUp,
			BreakerTrips:  stats.BreakerTrips,
			Spearman:      metrics.Mean(rhos),
			M:             partial.Evaluate(p),
		})
	}
	return out
}

// rankAgreement computes Spearman's ρ between two rankings of the
// same candidate pool. Users missing from a ranking share the
// past-the-end position, so losing candidates (because their
// resources failed to crawl) lowers the correlation.
func rankAgreement(a, b []socialgraph.UserID) float64 {
	users := make(map[socialgraph.UserID]bool, len(a)+len(b))
	for _, u := range a {
		users[u] = true
	}
	for _, u := range b {
		users[u] = true
	}
	pos := func(ranked []socialgraph.UserID) map[socialgraph.UserID]float64 {
		m := make(map[socialgraph.UserID]float64, len(ranked))
		for i, u := range ranked {
			m[u] = float64(i + 1)
		}
		return m
	}
	pa, pb := pos(a), pos(b)
	var xs, ys []float64
	for u := range users {
		x, ok := pa[u]
		if !ok {
			x = float64(len(a) + 1)
		}
		y, ok := pb[u]
		if !ok {
			y = float64(len(b) + 1)
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return metrics.SpearmanCorrelation(xs, ys)
}

// String renders the sweep.
func (ft *FaultTolerance) String() string {
	var b strings.Builder
	b.WriteString("Fault tolerance — ranking quality vs API failure rate (dist 2, retry/breaker stack)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %8s %6s %9s %8s %8s\n",
		"failure", "res(bare)", "res(hard)", "retries", "gaveup", "trips", "spearman", "MAP", "NDCG")
	for _, r := range ft.Rows {
		fmt.Fprintf(&b, "%-8.2f %10d %10d %8d %8d %6d %9.4f %8.4f %8.4f\n",
			r.FailureRate, r.ResourcesBare, r.Resources, r.Retries, r.GaveUp,
			r.BreakerTrips, r.Spearman, r.M.MAP, r.M.NDCG)
	}
	return b.String()
}
