package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value() = %v, want 3.5", got)
	}
	// Re-registration with matching shape returns the same child.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "").Add(-1)
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g", "help")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("Value() = %v, want 7.5", got)
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering m as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestRegisterLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering m_total with different labels did not panic")
		}
	}()
	r.CounterVec("m_total", "", "a")
}

func TestVecLabelArityPanics(t *testing.T) {
	v := NewRegistry().CounterVec("m_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestConcurrentUpdates(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	v := r.CounterVec("v_total", "", "w")
	h := r.Histogram("h_seconds", "", []float64{0.5})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				v.With(label).Inc()
				h.Observe(float64(i%2) * 0.75) // alternates buckets
				// Scrapes race the writers; they must not corrupt state.
				if i%500 == 0 {
					_ = r.Gather()
				}
			}
		}(w)
	}
	wg.Wait()

	want := float64(workers * perW)
	if c.Value() != want {
		t.Errorf("counter = %v, want %v", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %v, want %v", g.Value(), want)
	}
	var vecTotal float64
	for _, l := range []string{"a", "b", "c", "d"} {
		vecTotal += v.With(l).Value()
	}
	if vecTotal != want {
		t.Errorf("vec total = %v, want %v", vecTotal, want)
	}
	if h.Count() != uint64(workers*perW) {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perW)
	}
	snap := r.Gather()
	for _, fam := range snap {
		if fam.Name != "h_seconds" {
			continue
		}
		d := fam.Samples[0].Hist
		if got := d.Counts[0] + d.Counts[1]; got != d.Count {
			t.Errorf("snapshot buckets sum to %d, Count = %d", got, d.Count)
		}
	}
}

// TestGaugeFuncConcurrentGather: a scrape that runs while Func adds
// children reads every child it sees with its fn in place.
func TestGaugeFuncConcurrentGather(t *testing.T) {
	const rounds, children = 50, 200
	for round := 0; round < rounds; round++ {
		r := NewRegistry()
		v := r.GaugeVec("f", "", "k")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < children; i++ {
				v.Func(func() float64 { return 1 }, strconv.Itoa(i))
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			r.Gather()
		}
		if got := len(r.Gather()[0].Samples); got != children {
			t.Fatalf("%d samples, want %d", got, children)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2, 5})
	// A value equal to an upper bound lands in that bucket (le = ≤).
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 7.0} {
		h.Observe(v)
	}
	d := h.snapshot()
	wantCounts := []uint64{2, 2, 1, 1} // (-Inf,1], (1,2], (2,5], (5,+Inf)
	for i, w := range wantCounts {
		if d.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, d.Counts[i], w, d.Counts)
		}
	}
	if d.Count != 6 {
		t.Errorf("Count = %d, want 6", d.Count)
	}
	if d.Sum != 17.0 {
		t.Errorf("Sum = %v, want 17", d.Sum)
	}
}

func TestNormalizeBuckets(t *testing.T) {
	got := normalizeBuckets([]float64{5, 1, 2, 2, math.Inf(1)})
	want := []float64{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("normalizeBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalizeBuckets = %v, want %v", got, want)
		}
	}
	if got := normalizeBuckets(nil); len(got) != len(DefBuckets) {
		t.Fatalf("nil buckets → %d bounds, want DefBuckets (%d)", len(got), len(DefBuckets))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("expertfind_test_requests_total", "Requests served.", "route", "code")
	c.With("GET /v1/find", "200").Add(3)
	c.With("GET /v1/find", "400").Inc()
	g := r.Gauge("expertfind_test_in_flight", "In-flight requests.")
	g.Set(2)
	r.GaugeFunc("expertfind_test_uptime_seconds", "Uptime.", func() float64 { return 42 })
	h := r.Histogram("expertfind_test_duration_seconds", "Latency.", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP expertfind_test_requests_total Requests served.
# TYPE expertfind_test_requests_total counter
expertfind_test_requests_total{route="GET /v1/find",code="200"} 3
expertfind_test_requests_total{route="GET /v1/find",code="400"} 1
# HELP expertfind_test_in_flight In-flight requests.
# TYPE expertfind_test_in_flight gauge
expertfind_test_in_flight 2
# HELP expertfind_test_uptime_seconds Uptime.
# TYPE expertfind_test_uptime_seconds gauge
expertfind_test_uptime_seconds 42
# HELP expertfind_test_duration_seconds Latency.
# TYPE expertfind_test_duration_seconds histogram
expertfind_test_duration_seconds_bucket{le="0.1"} 1
expertfind_test_duration_seconds_bucket{le="0.5"} 2
expertfind_test_duration_seconds_bucket{le="+Inf"} 3
expertfind_test_duration_seconds_sum 2.35
expertfind_test_duration_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "", "q").With("say \"hi\"\nback\\slash").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `m_total{q="say \"hi\"\nback\\slash"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition %q does not contain %q", sb.String(), want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "line one\nline two")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# HELP m_total line one\nline two`) {
		t.Errorf("help not escaped: %q", sb.String())
	}
}

func TestGatherSort(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	v := r.CounterVec("a_total", "", "l")
	v.With("y").Inc()
	v.With("x").Inc()
	fams := r.Gather()
	Sort(fams)
	if fams[0].Name != "a_total" || fams[1].Name != "z_total" {
		t.Fatalf("Sort order: %s, %s", fams[0].Name, fams[1].Name)
	}
	if fams[0].Samples[0].LabelValues[0] != "x" {
		t.Fatalf("sample sort order: %v", fams[0].Samples)
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("NewID length: %q, %q", a, b)
	}
	if a == b {
		t.Fatalf("NewID produced duplicates: %q", a)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_total", "", "route", "code")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("GET /v1/find", "200").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.017)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a_total", "b_total", "c_total"} {
		v := r.CounterVec(n, "help", "l")
		v.With("x").Inc()
		v.With("y").Inc()
	}
	r.Histogram("d_seconds", "help", nil).Observe(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		_ = r.WritePrometheus(&sb)
	}
}
