package experiments

import (
	"fmt"
	"strings"

	"expertfind/internal/crawler"
)

// CrawlRow is one access level of the crawl-robustness sweep.
type CrawlRow struct {
	AccessProb float64
	Resources  int // resources in the crawled corpus
	Denied     int // users whose privacy settings blocked the crawl
	M          Metrics
}

// CrawlRobustness measures how retrieval quality degrades as the
// crawler's access to non-candidate users shrinks — a quantitative
// treatment of the paper's §3.7 remark that privacy policies limit
// third-party applications while platform owners see everything. The
// corpus is re-crawled at decreasing profile-access probabilities and
// the full pipeline re-run on each partial view (distance 2, window
// 100, α = 0.6).
type CrawlRobustness struct {
	Rows []CrawlRow
}

// crawlAccessLevels are the swept profile-access probabilities; 1.0
// is the platform-owner view, 0.006 the paper's measured Facebook
// friend accessibility.
var crawlAccessLevels = []float64{1.0, 0.5, 0.2, 0.05, 0.006}

// RunCrawlRobustness sweeps the access levels. It rebuilds the
// analysis index once per level, so it is the most expensive
// experiment (≈ one corpus build per level).
func RunCrawlRobustness(s *System) *CrawlRobustness {
	out := &CrawlRobustness{}
	for _, p := range crawlAccessLevels {
		crawled, stats := crawler.Crawl(s.DS.Graph, crawler.Policy{
			ProfileAccessProb: p,
			Seed:              17,
		})
		partial := mustBuild(BuildOptions{Dataset: s.DS.WithGraph(crawled)})
		out.Rows = append(out.Rows, CrawlRow{
			AccessProb: p,
			Resources:  crawled.NumResources(),
			Denied:     stats.UsersDenied,
			M:          partial.Evaluate(networkParams(nil, 2)),
		})
	}
	return out
}

// String renders the sweep.
func (cr *CrawlRobustness) String() string {
	var b strings.Builder
	b.WriteString("Crawl robustness — retrieval quality vs profile-access probability (dist 2)\n")
	fmt.Fprintf(&b, "%-8s %10s %8s %8s %8s %8s %8s\n", "access", "resources", "denied", "MAP", "MRR", "NDCG", "NDCG@10")
	for _, r := range cr.Rows {
		fmt.Fprintf(&b, "%-8.3f %10d %8d %8.4f %8.4f %8.4f %8.4f\n",
			r.AccessProb, r.Resources, r.Denied, r.M.MAP, r.M.MRR, r.M.NDCG, r.M.NDCG10)
	}
	return b.String()
}
