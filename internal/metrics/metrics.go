// Package metrics implements the standard retrieval-evaluation
// measures used in the paper's experiments (§3.2): Mean Average
// Precision (MAP), Mean Reciprocal Rank (MRR), (Normalized) Discounted
// Cumulative Gain (DCG / NDCG, optionally truncated at k), the
// 11-point interpolated precision/recall curve, and per-user
// precision/recall/F1.
//
// All functions operate on relevance judgments given in rank order:
// rel[i] reports whether the item retrieved at rank i+1 is relevant,
// and numRelevant is the total number of relevant items in the
// collection (retrieved or not), which fixes the recall denominator.
package metrics

import (
	"math"
	"sort"
)

// AveragePrecision returns the mean of the precision values measured
// at every relevant retrieved position, divided by the total number of
// relevant items; relevant items never retrieved contribute zero.
func AveragePrecision(rel []bool, numRelevant int) float64 {
	if numRelevant <= 0 {
		return 0
	}
	sum, hits := 0.0, 0
	for i, r := range rel {
		if r {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(numRelevant)
}

// ReciprocalRank returns 1/rank of the first relevant item, or 0 when
// none was retrieved.
func ReciprocalRank(rel []bool) float64 {
	for i, r := range rel {
		if r {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
// MAP and MRR are Mean of per-query AveragePrecision / ReciprocalRank.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// DCG returns the Discounted Cumulative Gain of the first k retrieved
// items, with graded gains: Σ gain_i / log2(i+1) with 1-based ranks.
// k <= 0 means the whole list.
func DCG(gains []float64, k int) float64 {
	if k <= 0 || k > len(gains) {
		k = len(gains)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += gains[i] / math.Log2(float64(i)+2)
	}
	return sum
}

// NDCG returns DCG normalized by the ideal DCG obtainable with the
// given idealGains (the gains of all relevant items in the
// collection, in any order; they are sorted internally). Both DCG and
// ideal DCG are truncated at k (k <= 0 for untruncated). NDCG is 0
// when the ideal gain is 0.
func NDCG(gains, idealGains []float64, k int) float64 {
	ideal := append([]float64(nil), idealGains...)
	sortDesc(ideal)
	idcg := DCG(ideal, k)
	if idcg == 0 {
		return 0
	}
	return DCG(gains, k) / idcg
}

// BinaryGains converts boolean relevance judgments to 0/1 gains.
func BinaryGains(rel []bool) []float64 {
	out := make([]float64, len(rel))
	for i, r := range rel {
		if r {
			out[i] = 1
		}
	}
	return out
}

// Ones returns a slice of n unit gains: the ideal gains for binary
// relevance with n relevant items.
func Ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// ElevenPointPrecision returns the interpolated precision at the 11
// standard recall levels 0.0, 0.1, ..., 1.0. The interpolated
// precision at recall level r is the maximum precision observed at any
// recall >= r.
func ElevenPointPrecision(rel []bool, numRelevant int) [11]float64 {
	var out [11]float64
	if numRelevant <= 0 {
		return out
	}
	// Collect (recall, precision) at every rank.
	type pr struct{ r, p float64 }
	points := make([]pr, 0, len(rel))
	hits := 0
	for i, r := range rel {
		if r {
			hits++
		}
		points = append(points, pr{
			r: float64(hits) / float64(numRelevant),
			p: float64(hits) / float64(i+1),
		})
	}
	for level := 0; level <= 10; level++ {
		rl := float64(level) / 10
		maxP := 0.0
		for _, pt := range points {
			if pt.r >= rl-1e-12 && pt.p > maxP {
				maxP = pt.p
			}
		}
		out[level] = maxP
	}
	return out
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// both are 0.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// PrecisionRecall computes precision and recall of an unranked
// retrieved set: hits relevant items retrieved, retrieved total items
// retrieved, relevant total relevant items.
func PrecisionRecall(hits, retrieved, relevant int) (precision, recall float64) {
	if retrieved > 0 {
		precision = float64(hits) / float64(retrieved)
	}
	if relevant > 0 {
		recall = float64(hits) / float64(relevant)
	}
	return precision, recall
}

func sortDesc(xs []float64) {
	// Insertion sort: ideal-gain lists are short (tens of items).
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] < x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

// LinearRegression fits y = a + b·x by least squares and returns the
// intercept and slope. Used for the resource-count regression of
// Fig. 10. It returns (mean(y), 0) when x has no variance.
func LinearRegression(x, y []float64) (a, b float64) {
	n := float64(len(x))
	if n == 0 || len(x) != len(y) {
		return 0, 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return my, 0
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b
}

// SpearmanCorrelation returns Spearman's rank correlation ρ of x and
// y: the Pearson correlation of their rank vectors, with tied values
// assigned the average of the ranks they span (midranks). It returns
// 0 when either vector has no variance in its ranks.
func SpearmanCorrelation(x, y []float64) float64 {
	if len(x) == 0 || len(x) != len(y) {
		return 0
	}
	return PearsonCorrelation(ranks(x), ranks(y))
}

// ranks converts values to 1-based midranks.
func ranks(xs []float64) []float64 {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return xs[order[i]] < xs[order[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(order); {
		j := i
		for j+1 < len(order) && xs[order[j+1]] == xs[order[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1 // average of 1-based ranks i+1..j+1
		for k := i; k <= j; k++ {
			out[order[k]] = mid
		}
		i = j + 1
	}
	return out
}

// PearsonCorrelation returns the correlation coefficient of x and y,
// or 0 when either has no variance. Non-finite inputs (NaN, ±Inf)
// have no meaningful correlation and also yield 0 — without the
// guard, a single NaN would slip past the zero-variance check (NaN
// compares false against 0) and poison the result.
func PearsonCorrelation(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 || math.IsNaN(sxx) || math.IsNaN(syy) ||
		math.IsInf(sxx, 0) || math.IsInf(syy, 0) {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
