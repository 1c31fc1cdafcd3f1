package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes the metric families a Registry holds.
type MetricType int

// The supported metric types.
const (
	CounterType MetricType = iota
	GaugeType
	HistogramType
)

// String names the type as it appears in Prometheus TYPE lines.
func (t MetricType) String() string {
	switch t {
	case CounterType:
		return "counter"
	case GaugeType:
		return "gauge"
	case HistogramType:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat is a float64 updatable without locks (CAS on the bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. All methods are safe
// for concurrent use.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative increments panic (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrement")
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// family is one named metric with its children (one per label-value
// combination; the empty combination for unlabeled metrics).
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	buckets    []float64      // histogram families only
	fn         func() float64 // gauge-func families only

	mu       sync.RWMutex
	children map[string]any // *Counter | *Gauge | *gaugeFunc | *Histogram, keyed by joined label values
	order    []string       // child keys in first-use order (stable exposition)
}

// labelKey joins label values with a separator that cannot appear in
// them unescaped ambiguity-free (0xff is invalid UTF-8).
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (fam *family) child(values []string, make func() any) any {
	if len(values) != len(fam.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s expects %d label values, got %d",
			fam.name, len(fam.labelNames), len(values)))
	}
	key := labelKey(values)
	fam.mu.RLock()
	c, ok := fam.children[key]
	fam.mu.RUnlock()
	if ok {
		return c
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if c, ok := fam.children[key]; ok {
		return c
	}
	c = make()
	fam.children[key] = c
	fam.order = append(fam.order, key)
	return c
}

// Registry holds metric families and renders them. The zero value is
// not usable; create registries with NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it on first use.
// Re-registering an existing name is idempotent when the type and
// label names match, and panics otherwise — a name collision between
// packages is a programming error worth failing loudly on.
func (r *Registry) register(name, help string, typ MetricType, labelNames []string, buckets []float64) *family {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fam, ok := r.families[name]; ok {
		if fam.typ != typ || !equalStrings(fam.labelNames, labelNames) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with different type or labels", name))
		}
		return fam
	}
	fam := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: labelNames,
		buckets:    buckets,
		children:   make(map[string]any),
	}
	r.families[name] = fam
	r.order = append(r.order, name)
	return fam
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	fam := r.register(name, help, CounterType, nil, nil)
	return fam.child(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ fam *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, CounterType, labelNames, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.child(labelValues, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	fam := r.register(name, help, GaugeType, nil, nil)
	return fam.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, GaugeType, labelNames, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.child(labelValues, func() any { return new(Gauge) }).(*Gauge)
}

// gaugeFunc is a labeled gauge child computed at scrape time.
type gaugeFunc struct {
	fn atomic.Pointer[func() float64]
}

// Func makes one label-value combination a gauge computed at scrape
// time by fn, replacing the fn an earlier Func gave it. fn must be
// safe for concurrent calls. A new child holds fn before the family
// publishes it, so a concurrent Gather never finds one without.
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	g := new(gaugeFunc)
	g.fn.Store(&fn)
	v.fam.child(labelValues, func() any { return g }).(*gaugeFunc).fn.Store(&fn)
}

// GaugeFunc registers a gauge whose value is computed at scrape time
// (uptime, pool sizes, ...). fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	fam := r.register(name, help, GaugeType, nil, nil)
	fam.fn = fn
}

// Histogram registers (or finds) an unlabeled histogram over the
// given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	b := normalizeBuckets(buckets)
	fam := r.register(name, help, HistogramType, nil, b)
	return fam.child(nil, func() any { return newHistogram(fam.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ fam *family }

// HistogramVec registers (or finds) a labeled histogram family over
// the given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	b := normalizeBuckets(buckets)
	return &HistogramVec{r.register(name, help, HistogramType, labelNames, b)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.child(labelValues, func() any { return newHistogram(v.fam.buckets) }).(*Histogram)
}

// Sample is one snapshotted metric child.
type Sample struct {
	LabelValues []string
	Value       float64        // counters and gauges
	Hist        *HistogramData // histograms only
}

// FamilySnapshot is one snapshotted metric family.
type FamilySnapshot struct {
	Name       string
	Help       string
	Type       MetricType
	LabelNames []string
	Samples    []Sample
}

// Gather snapshots every family, in registration order, children in
// first-use order. The snapshot is consistent per metric (atomic
// reads), not across metrics — the usual scrape semantics.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, fam := range fams {
		fs := FamilySnapshot{Name: fam.name, Help: fam.help, Type: fam.typ, LabelNames: fam.labelNames}
		if fam.fn != nil {
			fs.Samples = append(fs.Samples, Sample{Value: fam.fn()})
			out = append(out, fs)
			continue
		}
		fam.mu.RLock()
		keys := make([]string, len(fam.order))
		copy(keys, fam.order)
		children := make([]any, 0, len(keys))
		for _, k := range keys {
			children = append(children, fam.children[k])
		}
		fam.mu.RUnlock()
		for i, c := range children {
			var values []string
			if keys[i] != "" || len(fam.labelNames) > 0 {
				values = strings.Split(keys[i], "\xff")
			}
			s := Sample{LabelValues: values}
			switch m := c.(type) {
			case *Counter:
				s.Value = m.Value()
			case *Gauge:
				s.Value = m.Value()
			case *gaugeFunc:
				s.Value = (*m.fn.Load())()
			case *Histogram:
				s.Hist = m.snapshot()
			}
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	for _, fam := range r.Gather() {
		if fam.Help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", fam.Name, fam.Type)
		for _, s := range fam.Samples {
			if s.Hist != nil {
				writeHistogramSample(&sb, fam, s)
				continue
			}
			sb.WriteString(fam.Name)
			writeLabels(&sb, fam.LabelNames, s.LabelValues, "", "")
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.Value))
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeHistogramSample(sb *strings.Builder, fam FamilySnapshot, s Sample) {
	cum := uint64(0)
	for i, ub := range s.Hist.Buckets {
		cum += s.Hist.Counts[i]
		sb.WriteString(fam.Name)
		sb.WriteString("_bucket")
		writeLabels(sb, fam.LabelNames, s.LabelValues, "le", formatFloat(ub))
		fmt.Fprintf(sb, " %d\n", cum)
	}
	sb.WriteString(fam.Name)
	sb.WriteString("_bucket")
	writeLabels(sb, fam.LabelNames, s.LabelValues, "le", "+Inf")
	fmt.Fprintf(sb, " %d\n", s.Hist.Count) // Count sums all buckets incl. overflow
	sb.WriteString(fam.Name)
	sb.WriteString("_sum")
	writeLabels(sb, fam.LabelNames, s.LabelValues, "", "")
	fmt.Fprintf(sb, " %s\n", formatFloat(s.Hist.Sum))
	sb.WriteString(fam.Name)
	sb.WriteString("_count")
	writeLabels(sb, fam.LabelNames, s.LabelValues, "", "")
	fmt.Fprintf(sb, " %d\n", s.Hist.Count)
}

// writeLabels renders {k="v",...}, appending the extra pair (the
// histogram le) when extraName is non-empty. Nothing is written when
// there are no labels at all.
func writeLabels(sb *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraValue)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sort orders a gathered snapshot by family name and label values —
// handy for tests that want output independent of registration order.
func Sort(fams []FamilySnapshot) {
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, f := range fams {
		sort.Slice(f.Samples, func(i, j int) bool {
			return labelKey(f.Samples[i].LabelValues) < labelKey(f.Samples[j].LabelValues)
		})
	}
}
