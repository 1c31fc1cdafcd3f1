package experiments

import (
	"fmt"
	"math/rand"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/metrics"
	"expertfind/internal/socialgraph"
)

// Metrics aggregates the four headline measures used throughout the
// paper's tables: MAP, MRR, NDCG and NDCG@10.
type Metrics struct {
	MAP    float64
	MRR    float64
	NDCG   float64
	NDCG10 float64
}

// String renders the metrics in the paper's four-decimal style.
func (m Metrics) String() string {
	return fmt.Sprintf("%.4f %.4f %.4f %.4f", m.MAP, m.MRR, m.NDCG, m.NDCG10)
}

// queryEval evaluates one ranked expert list against the ground truth
// of the query's domain.
func (s *System) queryEval(q dataset.Query, ranked []socialgraph.UserID) (ap, rr, ndcg, ndcg10 float64) {
	rel := make([]bool, len(ranked))
	for i, u := range ranked {
		rel[i] = s.DS.IsExpert(u, q.Domain)
	}
	numRel := len(s.DS.Experts(q.Domain))
	gains := metrics.BinaryGains(rel)
	ideal := metrics.Ones(numRel)
	return metrics.AveragePrecision(rel, numRel),
		metrics.ReciprocalRank(rel),
		metrics.NDCG(gains, ideal, 0),
		metrics.NDCG(gains, ideal, 10)
}

// meanOver evaluates every query in order and averages each of the four
// measures over them.
func meanOver(qs []dataset.Query, eval func(dataset.Query) (ap, rr, ndcg, ndcg10 float64)) Metrics {
	var aps, rrs, ndcgs, ndcg10s []float64
	for _, q := range qs {
		ap, rr, nd, nd10 := eval(q)
		aps = append(aps, ap)
		rrs = append(rrs, rr)
		ndcgs = append(ndcgs, nd)
		ndcg10s = append(ndcg10s, nd10)
	}
	return Metrics{
		MAP:    metrics.Mean(aps),
		MRR:    metrics.Mean(rrs),
		NDCG:   metrics.Mean(ndcgs),
		NDCG10: metrics.Mean(ndcg10s),
	}
}

// rankedUsers strips the scores from an expert ranking.
func rankedUsers(experts []core.ExpertScore) []socialgraph.UserID {
	out := make([]socialgraph.UserID, len(experts))
	for i, e := range experts {
		out[i] = e.User
	}
	return out
}

// Evaluate runs every query of the dataset under params and returns
// the mean metrics (MAP, MRR, mean NDCG, mean NDCG@10).
func (s *System) Evaluate(p core.Params) Metrics {
	return s.EvaluateQueries(s.DS.Queries, p)
}

// EvaluateQueries evaluates a subset of queries under params.
func (s *System) EvaluateQueries(qs []dataset.Query, p core.Params) Metrics {
	return meanOver(qs, func(q dataset.Query) (ap, rr, ndcg, ndcg10 float64) {
		return s.queryEval(q, rankedUsers(s.Finder.FindAnalyzed(s.need(q), p)))
	})
}

// randomBaselineSeed fixes the baseline sampling across experiments.
const randomBaselineSeed = 97

// RandomBaseline computes the paper's random reference (§3.1): for
// each query, the metrics are averaged over 10 runs in which 20 users
// are randomly selected (in random order).
func (s *System) RandomBaseline() Metrics {
	return s.RandomBaselineQueries(s.DS.Queries)
}

// RandomBaselineQueries is RandomBaseline restricted to a query
// subset.
func (s *System) RandomBaselineQueries(qs []dataset.Query) Metrics {
	r := rand.New(rand.NewSource(randomBaselineSeed))
	return meanOver(qs, func(q dataset.Query) (ap, rr, ndcg, ndcg10 float64) {
		const runs = 10
		for k := 0; k < runs; k++ {
			kap, krr, knd, knd10 := s.queryEval(q, randomRanking(r, s.DS.Candidates, 20))
			ap += kap
			rr += krr
			ndcg += knd
			ndcg10 += knd10
		}
		return ap / runs, rr / runs, ndcg / runs, ndcg10 / runs
	})
}

// elevenPointAvg averages per-query 11-point interpolated precision
// curves for a ranking function.
func (s *System) elevenPointAvg(qs []dataset.Query, rank func(q dataset.Query) []socialgraph.UserID) [11]float64 {
	var sum [11]float64
	for _, q := range qs {
		ranked := rank(q)
		rel := make([]bool, len(ranked))
		for i, u := range ranked {
			rel[i] = s.DS.IsExpert(u, q.Domain)
		}
		curve := metrics.ElevenPointPrecision(rel, len(s.DS.Experts(q.Domain)))
		for i := range sum {
			sum[i] += curve[i]
		}
	}
	for i := range sum {
		sum[i] /= float64(len(qs))
	}
	return sum
}

// dcgCurve computes the graded DCG at cutoffs 1..maxK, summed over
// queries, with the candidate's Likert expertise level in the query
// domain as gain — the construction behind the paper's DCG plots
// (Figs. 8b, 9b), whose magnitude (tens to hundreds) reveals
// cross-query summation of graded gains.
func (s *System) dcgCurve(qs []dataset.Query, maxK int, rank func(q dataset.Query) []socialgraph.UserID) []float64 {
	out := make([]float64, maxK)
	for _, q := range qs {
		ranked := rank(q)
		gains := make([]float64, len(ranked))
		for i, u := range ranked {
			gains[i] = float64(s.DS.Level(u, q.Domain))
		}
		for k := 1; k <= maxK; k++ {
			out[k-1] += metrics.DCG(gains, k)
		}
	}
	return out
}

// randomRankFunc returns a rank function drawing a fresh random
// 20-user selection per query (averaged curves use averaged=10 runs
// internally where needed; for curve plots a single seeded draw per
// query suffices, as the paper plots one random series).
func (s *System) randomRankFunc() func(q dataset.Query) []socialgraph.UserID {
	r := rand.New(rand.NewSource(randomBaselineSeed))
	return func(dataset.Query) []socialgraph.UserID {
		return randomRanking(r, s.DS.Candidates, 20)
	}
}

// paramsRankFunc returns a rank function running the finder under p.
func (s *System) paramsRankFunc(p core.Params) func(q dataset.Query) []socialgraph.UserID {
	return func(q dataset.Query) []socialgraph.UserID {
		return rankedUsers(s.Finder.FindAnalyzed(s.need(q), p))
	}
}
