package main

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestMajorityErrorRateSingle(t *testing.T) {
	approx(t, "single 0.3", MajorityErrorRate([]float64{0.3}), 0.3)
	approx(t, "single 0", MajorityErrorRate([]float64{0}), 0)
	approx(t, "single 1", MajorityErrorRate([]float64{1}), 1)
	approx(t, "empty", MajorityErrorRate(nil), 1)
}

func TestMajorityErrorRateTriple(t *testing.T) {
	// Three identical jurors with p = 0.2: majority errs when >= 2
	// err: 3·p²(1−p) + p³ = 3·0.04·0.8 + 0.008 = 0.104.
	approx(t, "3x0.2", MajorityErrorRate([]float64{0.2, 0.2, 0.2}), 0.104)
	// Heterogeneous case computed by enumeration: p = .1, .2, .3.
	// P(>=2 err) = p1p2(1-p3) + p1p3(1-p2) + p2p3(1-p1) + p1p2p3
	want := 0.1*0.2*0.7 + 0.1*0.3*0.8 + 0.2*0.3*0.9 + 0.1*0.2*0.3
	approx(t, "heterogeneous", MajorityErrorRate([]float64{0.1, 0.2, 0.3}), want)
}

func TestMajorityErrorRateEvenTiesErr(t *testing.T) {
	// Two jurors, ties (exactly one err) count as errors:
	// P(>=1 err) = 1 − (1−p)².
	approx(t, "2x0.2", MajorityErrorRate([]float64{0.2, 0.2}), 1-0.8*0.8)
}

func TestWisdomOfCrowds(t *testing.T) {
	// More identical sub-0.5 jurors → lower majority error.
	p1 := MajorityErrorRate([]float64{0.3})
	p3 := MajorityErrorRate([]float64{0.3, 0.3, 0.3})
	p5 := MajorityErrorRate([]float64{0.3, 0.3, 0.3, 0.3, 0.3})
	if !(p5 < p3 && p3 < p1) {
		t.Errorf("crowd did not help: %v %v %v", p1, p3, p5)
	}
}

func TestSelectPicksBestJurors(t *testing.T) {
	cands := []Juror{
		{ID: 1, ErrorRate: 0.45},
		{ID: 2, ErrorRate: 0.10},
		{ID: 3, ErrorRate: 0.30},
		{ID: 4, ErrorRate: 0.12},
		{ID: 5, ErrorRate: 0.20},
	}
	j, err := Select(cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Members) != 3 {
		t.Fatalf("jury size = %d", len(j.Members))
	}
	ids := map[int64]bool{}
	for _, m := range j.Members {
		ids[m.ID] = true
	}
	if !ids[2] || !ids[4] || !ids[5] {
		t.Errorf("jury = %+v, want the three lowest error rates", j.Members)
	}
	want := MajorityErrorRate([]float64{0.10, 0.12, 0.20})
	approx(t, "jury error", j.ErrorRate, want)
}

func TestSelectPrefersSmallJuryWithOneStrongVoter(t *testing.T) {
	// One near-perfect juror among coin flippers: the singleton jury
	// beats any enlargement.
	cands := []Juror{
		{ID: 1, ErrorRate: 0.01},
		{ID: 2, ErrorRate: 0.49},
		{ID: 3, ErrorRate: 0.49},
	}
	j, err := Select(cands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Members) != 1 || j.Members[0].ID != 1 {
		t.Errorf("jury = %+v, want singleton of juror 1", j.Members)
	}
}

func TestSelectValidation(t *testing.T) {
	if _, err := Select(nil, 3); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := Select([]Juror{{ID: 1, ErrorRate: 0.2}}, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := Select([]Juror{{ID: 1, ErrorRate: 1.5}}, 3); err == nil {
		t.Error("invalid error rate accepted")
	}
}

func TestSelectClampsToPool(t *testing.T) {
	j, err := Select([]Juror{{ID: 1, ErrorRate: 0.2}, {ID: 2, ErrorRate: 0.3}}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Members)%2 != 1 {
		t.Errorf("even jury selected: %d", len(j.Members))
	}
}

func TestErrorRateFromExpertise(t *testing.T) {
	approx(t, "layman", ErrorRateFromExpertise(0), 0.5)
	approx(t, "expert", ErrorRateFromExpertise(1), 0.05)
	approx(t, "mid", ErrorRateFromExpertise(0.5), 0.275)
	approx(t, "clamped low", ErrorRateFromExpertise(-1), 0.5)
	approx(t, "clamped high", ErrorRateFromExpertise(2), 0.05)
}

// Property: the DP matches Monte-Carlo simulation.
func TestMajorityErrorRateMatchesSimulation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(7)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = r.Float64() * 0.6
		}
		exact := MajorityErrorRate(rates)

		const trials = 20000
		wrong := 0
		for tr := 0; tr < trials; tr++ {
			errs := 0
			for _, p := range rates {
				if r.Float64() < p {
					errs++
				}
			}
			if 2*errs >= n {
				wrong++
			}
		}
		sim := float64(wrong) / trials
		return math.Abs(exact-sim) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: selection never returns a jury worse than the best single
// juror, and the error rate is a valid probability.
func TestSelectProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		cands := make([]Juror, n)
		bestSingle := 1.0
		for i := range cands {
			cands[i] = Juror{ID: int64(i), ErrorRate: r.Float64()}
			if cands[i].ErrorRate < bestSingle {
				bestSingle = cands[i].ErrorRate
			}
		}
		j, err := Select(cands, 1+2*r.Intn(4))
		if err != nil {
			return false
		}
		if j.ErrorRate < 0 || j.ErrorRate > 1 {
			return false
		}
		return j.ErrorRate <= bestSingle+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
