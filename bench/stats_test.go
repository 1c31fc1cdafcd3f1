package main

import (
	"math"
	"testing"
	"time"

	"expertfind"
)

func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Microsecond
	}
	return out
}

func TestBestOfKeepsPerRequestMinimum(t *testing.T) {
	var b bestOf
	passes := [][]time.Duration{
		{5, 9, 3, 7},
		{6, 2, 3, 8},
		{4, 9, 9, 1},
	}
	for _, p := range passes {
		if err := b.fold(p); err != nil {
			t.Fatal(err)
		}
	}
	want := []time.Duration{4, 2, 3, 1}
	for i, w := range want {
		if b.best[i] != w {
			t.Errorf("best[%d] = %d, want %d", i, b.best[i], w)
		}
	}
	if b.passes != 3 || b.sum() != 10 {
		t.Errorf("passes %d sum %d, want 3 and 10", b.passes, b.sum())
	}
	passes[0][0] = 0
	if b.best[0] != 4 {
		t.Error("fold aliased the first pass's slice")
	}
	if err := b.fold([]time.Duration{1, 2}); err == nil {
		t.Error("fold accepted a pass of a different length")
	}
}

func TestQuantileIndexing(t *testing.T) {
	asc := ramp(1000)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.05, 50}} {
		got, err := quantile(asc, c.q)
		if err != nil {
			t.Fatalf("p%g: %v", c.q*100, err)
		}
		if got != c.want*time.Microsecond {
			t.Errorf("p%g of 1..1000 = %v, want %dµs", c.q*100, got, c.want)
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	// p95 of 200 samples has exactly ten beyond it; of 199, nine.
	if _, err := quantile(ramp(200), 0.95); err != nil {
		t.Errorf("p95 of 200: %v", err)
	}
	if _, err := quantile(ramp(199), 0.95); err == nil {
		t.Error("p95 of 199 samples was reported with nine samples beyond it")
	}
	if _, err := quantile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if _, err := quantile(ramp(19), 0.5); err == nil {
		t.Error("median of 19 samples was reported with nine samples above it")
	}
	if _, err := quantile(ramp(20), 0.5); err != nil {
		t.Errorf("median of 20: %v", err)
	}
	if _, err := quantile(ramp(199), 0.05); err == nil {
		t.Error("p5 of 199 samples was reported with nine samples below it")
	}
	for _, q := range []float64{0, 1, -0.1} {
		if _, err := quantile(ramp(100), q); err == nil {
			t.Errorf("quantile %v was accepted", q)
		}
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples was accepted")
	}
}

func TestMedianOfPasses(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

func TestRankingHashIsOrderAndBitSensitive(t *testing.T) {
	a := expertfind.Expert{Name: "candidate-01", Score: 1.5, SupportingResources: 3}
	b := expertfind.Expert{Name: "candidate-02", Score: 1.25, SupportingResources: 2}
	base := rankingHash([]expertfind.Expert{a, b})
	if base == rankingHash([]expertfind.Expert{b, a}) {
		t.Error("swapping two experts kept the hash")
	}
	if base != rankingHash([]expertfind.Expert{a, b}) {
		t.Error("hash is not a function of its input")
	}
	drift := a
	drift.Score = math.Nextafter(a.Score, 2)
	if base == rankingHash([]expertfind.Expert{drift, b}) {
		t.Error("a one-ulp score drift kept the hash")
	}
	support := b
	support.SupportingResources++
	if base == rankingHash([]expertfind.Expert{a, support}) {
		t.Error("a support-count change kept the hash")
	}
	if rankingHash(nil) == hashFailed {
		t.Error("an empty ranking hashes like a failed request")
	}
	// Name/score boundaries must not be ambiguous.
	if rankingHash([]expertfind.Expert{{Name: "ab"}}) == rankingHash([]expertfind.Expert{{Name: "a"}, {Name: "b"}}) {
		t.Error("one expert hashed like two")
	}
}

func TestStreamHashIsOrderAndStateSensitive(t *testing.T) {
	base := streamHash([]uint64{1, 2, 3}, "segments=4")
	if base == streamHash([]uint64{2, 1, 3}, "segments=4") {
		t.Error("reordering requests kept the stream hash")
	}
	if base == streamHash([]uint64{1, 2, 3}, "segments=5") {
		t.Error("a different end state kept the stream hash")
	}
}

func TestNeedsArePureFunctionsOfSeedAndSeq(t *testing.T) {
	queries := []expertfind.Query{{Text: "q one"}, {Text: "q two"}}
	g1, g2, g3 := newNeedGen(11, queries), newNeedGen(11, queries), newNeedGen(12, queries)
	same, differ := 0, 0
	for seq := uint64(0); seq < 200; seq++ {
		if g1.need(seq) != g2.need(seq) {
			t.Fatalf("need(%d) differs between equal generators", seq)
		}
		if g1.need(seq) == g3.need(seq) {
			same++
		} else {
			differ++
		}
	}
	if differ < 100 {
		t.Errorf("seeds 11 and 12 share %d of 200 needs", same)
	}
	skew := g1.skewed(2000, 100, 1.1, 0.1)
	seen := map[string]int{}
	for _, n := range skew {
		seen[n]++
	}
	once := 0
	for _, c := range seen {
		if c == 1 {
			once++
		}
	}
	if once < 150 || len(seen) > 100+once {
		t.Errorf("skewed stream: %d distinct needs, %d asked once; want a ~10%% never-repeated tail over a 100-need pool", len(seen), once)
	}
}
