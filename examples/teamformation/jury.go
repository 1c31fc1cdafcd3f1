package main

// The Jury Selection Problem, also cited by the paper's related work
// (§4, Cao, She, Tong & Chen, "Whom to ask? Jury selection for decision
// making tasks on micro-blog services", VLDB 2012): choose, from a pool
// of candidates with individual error rates, the jury whose majority
// vote minimizes the overall decision error.
//
// The Jury Error Rate of a set of voters with independent error
// probabilities is the probability that at least half of them err
// (ties count as errors, which is why juries have odd size). It is
// computed exactly with the Poisson-binomial dynamic program. As in
// the VLDB paper's majority-voting setting, the optimal jury of a
// given size consists of the members with the lowest error rates, so
// selection sorts by error rate and scans all odd sizes.

import (
	"fmt"
	"sort"

	"expertfind"
	"expertfind/internal/socialgraph"
)

// NamedJury is a Jury read back as candidate handles.
type NamedJury struct {
	// Members are the selected jurors, most reliable first.
	Members []string
	// ErrorRate is the probability that their majority vote errs.
	ErrorRate float64
}

// SelectJury picks the jury (of odd size at most maxSize) minimizing
// the majority-vote error for a decision task phrased as an expertise
// need. Individual error rates derive from the retrieved expertise
// scores: the strongest expert gets the lowest error rate, candidates
// without supporting resources are not considered.
func SelectJury(sys *expertfind.System, need string, maxSize int, opts ...expertfind.FindOption) (NamedJury, error) {
	experts, err := sys.Find(need, opts...)
	if err != nil {
		return NamedJury{}, err
	}
	if len(experts) == 0 {
		return NamedJury{}, fmt.Errorf("teamformation: no experts found for need %q", need)
	}
	ids := candidateIDs(sys)
	top := experts[0].Score
	cands := make([]Juror, len(experts))
	for i, e := range experts {
		cands[i] = Juror{
			ID:        int64(ids[e.Name]),
			ErrorRate: ErrorRateFromExpertise(e.Score / top),
		}
	}
	selected, err := Select(cands, maxSize)
	if err != nil {
		return NamedJury{}, err
	}
	g := sys.CoreFinder().Graph()
	out := NamedJury{ErrorRate: selected.ErrorRate}
	for _, m := range selected.Members {
		out.Members = append(out.Members, g.User(socialgraph.UserID(m.ID)).Name)
	}
	return out, nil
}

// Juror is one candidate voter. In this repository, error rates are
// typically derived from expertise scores (an expert erring rarely),
// but any probability in [0, 1] works.
type Juror struct {
	ID        int64
	ErrorRate float64
}

// Jury is a selected voting committee.
type Jury struct {
	Members []Juror
	// ErrorRate is the probability that the majority vote is wrong.
	ErrorRate float64
}

// ErrorRateFromExpertise maps a normalized expertise level in [0, 1]
// to an individual error rate in [0.05, 0.5]: a complete layman is a
// coin flip, a perfect expert still errs 5% of the time (the floor
// the VLDB paper also applies to keep voters imperfect).
func ErrorRateFromExpertise(skill float64) float64 {
	if skill < 0 {
		skill = 0
	}
	if skill > 1 {
		skill = 1
	}
	return 0.5 - 0.45*skill
}

// MajorityErrorRate returns the probability that the majority vote of
// independent jurors errs; ties are errors. An empty jury always errs.
func MajorityErrorRate(errorRates []float64) float64 {
	n := len(errorRates)
	if n == 0 {
		return 1
	}
	// dp[k] = probability that exactly k jurors err.
	dp := make([]float64, n+1)
	dp[0] = 1
	for i, p := range errorRates {
		for k := i + 1; k >= 1; k-- {
			dp[k] = dp[k]*(1-p) + dp[k-1]*p
		}
		dp[0] *= (1 - p)
	}
	// Majority errs when #errors * 2 >= n (ties are errors).
	threshold := (n + 1) / 2
	if n%2 == 0 {
		threshold = n / 2
	}
	wrong := 0.0
	for k := threshold; k <= n; k++ {
		wrong += dp[k]
	}
	return wrong
}

// Select chooses the jury of odd size at most maxSize minimizing the
// majority error rate. Candidates with error rates outside [0, 1] are
// rejected. Jurors are never duplicated; if fewer candidates than
// maxSize exist, all odd sizes up to the pool size are considered.
func Select(candidates []Juror, maxSize int) (Jury, error) {
	if len(candidates) == 0 {
		return Jury{}, fmt.Errorf("jury: no candidates")
	}
	if maxSize <= 0 {
		return Jury{}, fmt.Errorf("jury: non-positive jury size %d", maxSize)
	}
	for _, c := range candidates {
		if c.ErrorRate < 0 || c.ErrorRate > 1 {
			return Jury{}, fmt.Errorf("jury: candidate %d has error rate %v outside [0,1]", c.ID, c.ErrorRate)
		}
	}
	pool := append([]Juror(nil), candidates...)
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].ErrorRate != pool[j].ErrorRate {
			return pool[i].ErrorRate < pool[j].ErrorRate
		}
		return pool[i].ID < pool[j].ID
	})
	if maxSize > len(pool) {
		maxSize = len(pool)
	}

	best := Jury{ErrorRate: 2}
	rates := make([]float64, 0, maxSize)
	for size := 1; size <= maxSize; size += 2 {
		rates = rates[:0]
		for _, j := range pool[:size] {
			rates = append(rates, j.ErrorRate)
		}
		if e := MajorityErrorRate(rates); e < best.ErrorRate {
			best = Jury{Members: append([]Juror(nil), pool[:size]...), ErrorRate: e}
		}
	}
	return best, nil
}
