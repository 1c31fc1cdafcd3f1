package experiments

import (
	"fmt"
	"strings"

	"expertfind/internal/analysis"
	"expertfind/internal/baseline"
	"expertfind/internal/dataset"
	"expertfind/internal/socialgraph"
)

// BaselineRow is one method of the comparison.
type BaselineRow struct {
	Method string
	M      Metrics
}

// BaselineComparison compares the paper's social vector-space
// approach against the classic language-modeling expert-retrieval
// methods it builds on (Balog's candidate Model 1 and document
// Model 2, §4 reference [3]) and the random baseline, all over the
// same corpus, candidate associations (distance ≤ 2, all networks)
// and distance weights, so the ranking method is the only variable.
type BaselineComparison struct {
	Rows []BaselineRow
}

// buildLM re-analyzes the reachable corpus into the language-model
// state. Documents are re-analyzed (rather than reusing the index)
// because the LM needs raw term frequencies per document.
func (s *System) buildLM() *baseline.LM {
	g := s.DS.Graph
	pipe := s.Finder.Pipeline()
	rcm := g.ResourceCandidateMap(s.DS.Candidates, socialgraph.TraversalOptions{MaxDistance: 2})
	docs := make(map[socialgraph.ResourceID]analysis.Analyzed, len(rcm))
	for rid := range rcm {
		r := g.Resource(rid)
		if a, ok := pipe.Analyze(r.Text, r.URLs); ok {
			docs[rid] = a
		}
	}
	return baseline.NewLM(docs, baseline.DistanceWeights(rcm))
}

// RunBaselineComparison evaluates every method on the 30 queries.
func RunBaselineComparison(s *System) *BaselineComparison {
	lm := s.buildLM()
	m1 := baseline.NewModel1(lm)
	m2 := baseline.NewModel2(lm)

	evalRanker := func(rank func(analysis.Analyzed, []socialgraph.UserID) []baseline.Scored) Metrics {
		return meanOver(s.DS.Queries, func(q dataset.Query) (ap, rr, ndcg, ndcg10 float64) {
			scored := rank(s.need(q), s.DS.Candidates)
			ranked := make([]socialgraph.UserID, len(scored))
			for i, sc := range scored {
				ranked[i] = sc.User
			}
			return s.queryEval(q, ranked)
		})
	}

	return &BaselineComparison{Rows: []BaselineRow{
		{Method: "random", M: s.RandomBaseline()},
		{Method: "balog-model1", M: evalRanker(m1.Rank)},
		{Method: "balog-model2", M: evalRanker(m2.Rank)},
		{Method: "social-vsm (paper)", M: s.Evaluate(networkParams(nil, 2))},
	}}
}

// String renders the comparison.
func (b *BaselineComparison) String() string {
	var sb strings.Builder
	sb.WriteString("Baseline comparison — ranking methods over the same corpus and associations\n")
	fmt.Fprintf(&sb, "%-20s %8s %8s %8s %8s\n", "method", "MAP", "MRR", "NDCG", "NDCG@10")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-20s %8.4f %8.4f %8.4f %8.4f\n", r.Method, r.M.MAP, r.M.MRR, r.M.NDCG, r.M.NDCG10)
	}
	return sb.String()
}
