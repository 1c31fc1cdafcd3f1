package experiments

import (
	"fmt"
	"strings"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// Fig6Point is one window size on the sweep.
type Fig6Point struct {
	Frac float64 // fraction of matching resources considered
	M    Metrics
}

// Fig6 is the window-size sensitivity analysis (paper §3.3.1): MAP,
// MRR, NDCG and NDCG@10 for increasing window sizes up to 10% of the
// matching resources, at resource distance 1 and 2 with α = 0.5, plus
// the fixed 100-resource operating point the paper settles on.
type Fig6 struct {
	Dist1, Dist2           []Fig6Point
	Dist1At100, Dist2At100 Metrics
	Random                 Metrics
}

// fig6Fracs are the swept window fractions.
var fig6Fracs = []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}

// RunFig6 sweeps the window size at distance 1 and 2.
func RunFig6(s *System) *Fig6 {
	out := &Fig6{Random: s.RandomBaseline()}
	out.Dist1, out.Dist1At100 = s.windowSweep(1)
	out.Dist2, out.Dist2At100 = s.windowSweep(2)
	return out
}

// windowSweep evaluates all queries at every window fraction for one
// distance, reusing the per-query match lists across window sizes.
func (s *System) windowSweep(dist int) ([]Fig6Point, Metrics) {
	p := core.Params{
		Alpha:     0.5, // the paper's setting for this experiment
		Traversal: socialgraph.TraversalOptions{MaxDistance: dist},
	}
	matches := make(map[int][]index.ScoredDoc, len(s.DS.Queries))
	for _, q := range s.DS.Queries {
		matches[q.ID] = s.Finder.Matches(s.need(q), p)
	}

	eval := func(pp core.Params) Metrics {
		return meanOver(s.DS.Queries, func(q dataset.Query) (ap, rr, ndcg, ndcg10 float64) {
			return s.queryEval(q, rankedUsers(s.Finder.RankFromMatches(matches[q.ID], pp)))
		})
	}

	points := make([]Fig6Point, 0, len(fig6Fracs))
	for _, frac := range fig6Fracs {
		pp := p
		pp.WindowFrac = frac
		points = append(points, Fig6Point{Frac: frac, M: eval(pp)})
	}
	pp := p
	pp.WindowSize = core.DefaultWindowSize
	return points, eval(pp)
}

// String renders the sweep as two series tables.
func (f *Fig6) String() string {
	var b strings.Builder
	b.WriteString("Fig 6 — window-size sweep (alpha 0.5; metrics: MAP MRR NDCG NDCG@10)\n")
	fmt.Fprintf(&b, "random baseline: %s\n", f.Random)
	render := func(name string, pts []Fig6Point, at100 Metrics) {
		fmt.Fprintf(&b, "%s:\n", name)
		for _, pt := range pts {
			fmt.Fprintf(&b, "  %5.1f%%  %s\n", pt.Frac*100, pt.M)
		}
		fmt.Fprintf(&b, "  100res  %s\n", at100)
	}
	render("distance 1", f.Dist1, f.Dist1At100)
	render("distance 2", f.Dist2, f.Dist2At100)
	return b.String()
}

// Fig7Point is one α value on the sweep.
type Fig7Point struct {
	Alpha float64
	M     Metrics
}

// Fig7 is the α sensitivity analysis (paper §3.3.2): metrics for α in
// [0, 1] at resource distances 0, 1 and 2 with window 100. The paper
// observes stability in [0.3, 0.8] and a collapse at α = 0 with
// distance-0 resources (profiles carry too few entities), settling on
// α = 0.6.
type Fig7 struct {
	Dist   [3][]Fig7Point
	Random Metrics
}

// RunFig7 sweeps α at each distance.
func RunFig7(s *System) *Fig7 {
	out := &Fig7{Random: s.RandomBaseline()}
	for dist := 0; dist <= 2; dist++ {
		for a := 0; a <= 10; a++ {
			alpha := float64(a) / 10
			p := core.Params{
				Alpha:      alpha,
				AlphaSet:   true,
				WindowSize: core.DefaultWindowSize,
				Traversal:  socialgraph.TraversalOptions{MaxDistance: dist},
			}
			out.Dist[dist] = append(out.Dist[dist], Fig7Point{Alpha: alpha, M: s.Evaluate(p)})
		}
	}
	return out
}

// String renders the α sweep.
func (f *Fig7) String() string {
	var b strings.Builder
	b.WriteString("Fig 7 — alpha sweep (window 100; metrics: MAP MRR NDCG NDCG@10)\n")
	fmt.Fprintf(&b, "random baseline: %s\n", f.Random)
	for dist := 0; dist <= 2; dist++ {
		fmt.Fprintf(&b, "distance %d:\n", dist)
		for _, pt := range f.Dist[dist] {
			fmt.Fprintf(&b, "  a=%.1f  %s\n", pt.Alpha, pt.M)
		}
	}
	return b.String()
}
