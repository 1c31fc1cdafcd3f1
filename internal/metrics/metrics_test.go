package metrics

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

func TestAveragePrecision(t *testing.T) {
	// Classic worked example: relevant at ranks 1, 3, 5 out of 3 total.
	rel := []bool{true, false, true, false, true}
	want := (1.0 + 2.0/3 + 3.0/5) / 3
	approx(t, "AP", AveragePrecision(rel, 3), want)

	// Unretrieved relevant items lower AP.
	approx(t, "AP missing relevant", AveragePrecision(rel, 6), (1.0+2.0/3+3.0/5)/6)

	// Perfect ranking has AP 1.
	approx(t, "AP perfect", AveragePrecision([]bool{true, true, true}, 3), 1)
	approx(t, "AP nothing relevant", AveragePrecision([]bool{false, false}, 2), 0)
	approx(t, "AP zero relevant", AveragePrecision(rel, 0), 0)
}

func TestReciprocalRank(t *testing.T) {
	approx(t, "RR first", ReciprocalRank([]bool{true, false}), 1)
	approx(t, "RR third", ReciprocalRank([]bool{false, false, true}), 1.0/3)
	approx(t, "RR none", ReciprocalRank([]bool{false, false}), 0)
	approx(t, "RR empty", ReciprocalRank(nil), 0)
}

func TestMean(t *testing.T) {
	approx(t, "Mean", Mean([]float64{1, 2, 3}), 2)
	approx(t, "Mean empty", Mean(nil), 0)
}

func TestDCG(t *testing.T) {
	gains := []float64{3, 2, 3, 0, 1, 2}
	// Standard textbook example (Wikipedia DCG article, log2(i+1) form):
	want := 3 + 2/math.Log2(3) + 3/math.Log2(4) + 0 + 1/math.Log2(6) + 2/math.Log2(7)
	approx(t, "DCG full", DCG(gains, 0), want)
	approx(t, "DCG@1", DCG(gains, 1), 3)
	approx(t, "DCG@2", DCG(gains, 2), 3+2/math.Log2(3))
	approx(t, "DCG k>len", DCG(gains, 100), want)
}

func TestNDCG(t *testing.T) {
	gains := []float64{3, 2, 3, 0, 1, 2}
	ideal := []float64{3, 3, 2, 2, 1, 0}
	got := NDCG(gains, ideal, 0)
	if got <= 0 || got >= 1 {
		t.Errorf("NDCG = %v, want in (0,1)", got)
	}
	// Ideal ranking ⇒ NDCG = 1.
	approx(t, "NDCG ideal", NDCG(ideal, ideal, 0), 1)
	// Zero ideal gain ⇒ 0.
	approx(t, "NDCG zero ideal", NDCG(gains, nil, 0), 0)
	// Unsorted ideal gains are sorted internally.
	shuffled := []float64{0, 1, 2, 3, 2, 3}
	approx(t, "NDCG shuffled ideal", NDCG(gains, shuffled, 0), got)
}

func TestNDCGTruncated(t *testing.T) {
	rel := []bool{true, false, true}
	g := BinaryGains(rel)
	// At k=1 the first item is relevant: NDCG@1 = 1.
	approx(t, "NDCG@1", NDCG(g, Ones(2), 1), 1)
	// NDCG@2: DCG = 1, IDCG = 1 + 1/log2(3).
	approx(t, "NDCG@2", NDCG(g, Ones(2), 2), 1/(1+1/math.Log2(3)))
}

func TestBinaryGainsAndOnes(t *testing.T) {
	g := BinaryGains([]bool{true, false, true})
	if g[0] != 1 || g[1] != 0 || g[2] != 1 {
		t.Errorf("BinaryGains = %v", g)
	}
	if o := Ones(3); len(o) != 3 || o[0] != 1 || o[2] != 1 {
		t.Errorf("Ones = %v", o)
	}
}

func TestElevenPointPrecision(t *testing.T) {
	// 2 relevant items at ranks 1 and 3, 2 relevant total.
	rel := []bool{true, false, true}
	p := ElevenPointPrecision(rel, 2)
	// At recall 0.0..0.5 the best precision is 1 (rank 1, recall 0.5).
	for level := 0; level <= 5; level++ {
		approx(t, "11P low recall", p[level], 1)
	}
	// At recall 0.6..1.0 the best precision is 2/3 (rank 3, recall 1).
	for level := 6; level <= 10; level++ {
		approx(t, "11P high recall", p[level], 2.0/3)
	}
	// No relevant retrieved: all zeros.
	p = ElevenPointPrecision([]bool{false, false}, 2)
	for _, v := range p {
		approx(t, "11P none", v, 0)
	}
}

func TestElevenPointPrecisionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		rel := make([]bool, n)
		total := 0
		for i := range rel {
			rel[i] = r.Intn(3) == 0
			if rel[i] {
				total++
			}
		}
		total += r.Intn(3) // some relevant items not retrieved
		if total == 0 {
			total = 1
		}
		p := ElevenPointPrecision(rel, total)
		for i := 1; i < len(p); i++ {
			if p[i] > p[i-1]+1e-12 {
				return false // interpolated precision must be non-increasing
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF1(t *testing.T) {
	approx(t, "F1", F1(0.5, 0.5), 0.5)
	approx(t, "F1 asym", F1(1, 0.5), 2.0/3)
	approx(t, "F1 zero", F1(0, 0), 0)
}

func TestPrecisionRecall(t *testing.T) {
	p, r := PrecisionRecall(3, 4, 6)
	approx(t, "precision", p, 0.75)
	approx(t, "recall", r, 0.5)
	p, r = PrecisionRecall(0, 0, 0)
	approx(t, "precision empty", p, 0)
	approx(t, "recall empty", r, 0)
}

func TestLinearRegression(t *testing.T) {
	// y = 2 + 3x exactly.
	x := []float64{0, 1, 2, 3}
	y := []float64{2, 5, 8, 11}
	a, b := LinearRegression(x, y)
	approx(t, "intercept", a, 2)
	approx(t, "slope", b, 3)
	// Constant x: slope 0, intercept mean(y).
	a, b = LinearRegression([]float64{1, 1}, []float64{3, 5})
	approx(t, "slope const x", b, 0)
	approx(t, "intercept const x", a, 4)
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	approx(t, "perfect positive", PearsonCorrelation(x, []float64{2, 4, 6, 8}), 1)
	approx(t, "perfect negative", PearsonCorrelation(x, []float64{8, 6, 4, 2}), -1)
	approx(t, "no variance", PearsonCorrelation(x, []float64{5, 5, 5, 5}), 0)
}

func TestSpearmanCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	// Any monotone map of x has ρ = 1 even when Pearson < 1.
	approx(t, "monotone", SpearmanCorrelation(x, []float64{1, 10, 100, 1000}), 1)
	approx(t, "reversed", SpearmanCorrelation(x, []float64{9, 7, 5, 3}), -1)
	approx(t, "no variance", SpearmanCorrelation(x, []float64{5, 5, 5, 5}), 0)
	// Ties get midranks: textbook example with one swap and a tie.
	rho := SpearmanCorrelation([]float64{1, 2, 3, 4, 5}, []float64{1, 3, 2, 4, 4})
	if rho <= 0.7 || rho >= 1 {
		t.Errorf("tied ρ = %v, want in (0.7, 1)", rho)
	}
	approx(t, "mismatched lengths", SpearmanCorrelation(x, []float64{1}), 0)
}

// Property: all bounded metrics stay in [0,1] for arbitrary inputs.
func TestMetricBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40)
		rel := make([]bool, n)
		relevantRetrieved := 0
		for i := range rel {
			rel[i] = r.Intn(2) == 0
			if rel[i] {
				relevantRetrieved++
			}
		}
		numRelevant := relevantRetrieved + r.Intn(5)
		in01 := func(v float64) bool { return v >= 0 && v <= 1+1e-12 }
		if !in01(AveragePrecision(rel, numRelevant)) {
			return false
		}
		if !in01(ReciprocalRank(rel)) {
			return false
		}
		if !in01(NDCG(BinaryGains(rel), Ones(numRelevant), 10)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NDCG of the ideal ordering is exactly 1 whenever there is
// at least one relevant item.
func TestNDCGIdealIsOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		gains := make([]float64, n)
		for i := range gains {
			gains[i] = float64(r.Intn(8))
		}
		sorted := append([]float64(nil), gains...)
		sortDesc(sorted)
		if sorted[0] == 0 {
			sorted[0] = 1
		}
		return math.Abs(NDCG(sorted, sorted, 0)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAveragePrecision(b *testing.B) {
	rel := make([]bool, 40)
	for i := range rel {
		rel[i] = i%3 == 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AveragePrecision(rel, 17)
	}
}
