package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets, in seconds: half a
// millisecond up to ten seconds, the range a query or HTTP request in
// this system can plausibly span.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets ("le" upper
// bounds) and tracks their sum — enough to derive rates and quantile
// estimates in Prometheus. All methods are safe for concurrent use.
//
// A value equal to a bucket's upper bound counts into that bucket
// (the Prometheus "less than or equal" convention); values above the
// last bound count only into the implicit +Inf bucket.
type Histogram struct {
	upper  []float64 // sorted upper bounds
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// normalizeBuckets sorts and deduplicates the bounds, defaulting nil
// (or empty) to DefBuckets and dropping a trailing +Inf (implicit).
func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := make([]float64, len(buckets))
	copy(b, buckets)
	sort.Float64s(b)
	out := b[:0]
	for i, v := range b {
		if i > 0 && v == b[i-1] {
			continue
		}
		out = append(out, v)
	}
	if n := len(out); n > 0 && out[n-1] > 1e308 {
		out = out[:n-1]
	}
	return out
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound ≥ v; len(upper) ⇒ +Inf
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since t0 — the idiom for
// timing a code section:
//
//	defer hist.ObserveSince(time.Now())
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// HistogramData is a histogram snapshot. Counts are per-bucket (not
// cumulative), with one extra trailing entry for the +Inf overflow;
// Count is their sum, so a rendered exposition is always internally
// consistent even when the snapshot races concurrent observations.
type HistogramData struct {
	Buckets []float64
	Counts  []uint64
	Sum     float64
	Count   uint64
}

func (h *Histogram) snapshot() *HistogramData {
	d := &HistogramData{Buckets: h.upper, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
		d.Count += d.Counts[i]
	}
	d.Sum = h.sum.Load()
	return d
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the histogram, suitable
// for quantile estimation outside a registry scrape.
func (h *Histogram) Snapshot() *HistogramData { return h.snapshot() }

// LogBuckets returns perDecade log-spaced bucket bounds per decade
// from min up to and including the first bound >= max — the natural
// bucket layout for latency, where relative (not absolute) resolution
// matters across four or five orders of magnitude. min must be
// positive and max > min; perDecade < 1 selects 10.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min {
		panic("telemetry: LogBuckets requires 0 < min < max")
	}
	if perDecade < 1 {
		perDecade = 10
	}
	var out []float64
	for i := 0; ; i++ {
		b := min * math.Pow(10, float64(i)/float64(perDecade))
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly within
// the bucket holding the target rank (the same estimator Prometheus's
// histogram_quantile uses). The first bucket interpolates from 0; a
// rank landing in the +Inf overflow bucket reports the largest finite
// bound. An empty histogram reports 0.
func (d *HistogramData) Quantile(q float64) float64 {
	if d.Count == 0 || len(d.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Count)
	cum := uint64(0)
	for i, ub := range d.Buckets {
		prev := cum
		cum += d.Counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = d.Buckets[i-1]
			}
			if d.Counts[i] == 0 {
				return ub
			}
			return lo + (ub-lo)*(rank-float64(prev))/float64(d.Counts[i])
		}
	}
	return d.Buckets[len(d.Buckets)-1]
}
