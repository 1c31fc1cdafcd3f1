package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Span is one timed section of a trace (a pipeline stage). Create
// spans with Trace.StartSpan and close them with End. A nil *Span is
// valid and inert, so instrumented code needs no nil checks.
//
// Every span carries a trace-local identifier ("s1", "s2", ... in
// start order) so other spans — and traces recorded by other
// processes — can reference it as their parent, which is how the
// coordinator stitches shard timelines under the exact fan-out
// attempt that served them.
type Span struct {
	mu     sync.Mutex
	id     string
	parent string
	name   string
	start  time.Time
	dur    time.Duration
	attrs  map[string]string
	ended  bool
}

// ID returns the span's trace-local identifier ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// End closes the span, fixing its duration. Further Ends are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
}

// SetAttrInt is SetAttr for a count. An untraced query (nil span) does
// not pay for the formatting.
func (s *Span) SetAttrInt(k string, v int) {
	if s != nil {
		s.SetAttr(k, strconv.Itoa(v))
	}
}

// Trace records the spans of one query or request. Create traces with
// Tracer.Start, which also threads the trace through a context; a nil
// *Trace (what TraceFrom returns on an uninstrumented context) is
// valid and inert.
type Trace struct {
	tracer *Tracer

	mu         sync.Mutex
	id         string
	name       string
	parentSpan string
	start      time.Time
	dur        time.Duration
	attrs      map[string]string
	spans      []*Span
	nspans     int
	keep       bool
	keepReason string
	kept       bool
	finished   bool
}

// ID returns the trace identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a named top-level span; close it with End.
func (t *Trace) StartSpan(name string) *Span {
	return t.StartChildSpan("", name)
}

// StartChildSpan opens a named span nested under the span with the
// given trace-local id (empty for a top-level span); close it with
// End.
func (t *Trace) StartChildSpan(parentID, name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{parent: parentID, name: name, start: time.Now()}
	t.mu.Lock()
	t.nspans++
	sp.id = fmt.Sprintf("s%d", t.nspans)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// SetAttr attaches a key/value annotation to the trace itself.
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[k] = v
}

// SetParentSpan records the remote span this whole trace nests under:
// a shard process sets it from the coordinator's X-Expertfind-Span
// header, so the assembled cross-process timeline attaches the shard's
// spans to the exact fan-out attempt that carried the request.
func (t *Trace) SetParentSpan(spanID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parentSpan = spanID
}

// Keep marks the trace for tail-sampled retention regardless of its
// duration — the serving layer calls it for errored, shed and
// degraded requests, the ones a newest-N ring evicts first. The first
// reason wins.
func (t *Trace) Keep(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.markKeepLocked(reason)
}

func (t *Trace) markKeepLocked(reason string) {
	if t.keep {
		return
	}
	t.keep = true
	t.keepReason = reason
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs["keep"] = reason
}

// WasKept reports whether Finish placed the trace in its tracer's
// tail-sampled keep ring (explicitly marked, or slower than the keep
// policy's threshold).
func (t *Trace) WasKept() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept
}

// Finish closes the trace and publishes it into its tracer's ring of
// recent traces (and, when marked or slow, the keep ring). Further
// Finishes are no-ops.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.dur = time.Since(t.start)
	tracer := t.tracer
	t.mu.Unlock()
	if tracer != nil {
		tracer.record(t)
	}
}

// SpanSnapshot is the JSON-able form of a finished span.
type SpanSnapshot struct {
	// ID is the span's trace-local identifier ("s1", "s2", ... in
	// start order).
	ID string `json:"span_id"`
	// Parent is the trace-local id of the enclosing span, empty for
	// top-level spans.
	Parent string `json:"parent_span_id,omitempty"`
	Name   string `json:"name"`
	// StartOffsetUS is the span's start relative to the trace start,
	// in microseconds.
	StartOffsetUS int64             `json:"start_offset_us"`
	DurationUS    int64             `json:"duration_us"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is the JSON-able form of a finished trace, what
// /debug/traces serves.
type TraceSnapshot struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// ParentSpan is the remote span id this trace nests under (set on
	// shard traces from the coordinator's X-Expertfind-Span header).
	ParentSpan string            `json:"parent_span_id,omitempty"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanSnapshot    `json:"spans"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		ID:         t.id,
		Name:       t.name,
		ParentSpan: t.parentSpan,
		Start:      t.start,
		DurationUS: t.dur.Microseconds(),
		Attrs:      copyAttrs(t.attrs),
		Spans:      make([]SpanSnapshot, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		sp.mu.Lock()
		snap.Spans = append(snap.Spans, SpanSnapshot{
			ID:            sp.id,
			Parent:        sp.parent,
			Name:          sp.name,
			StartOffsetUS: sp.start.Sub(t.start).Microseconds(),
			DurationUS:    sp.dur.Microseconds(),
			Attrs:         copyAttrs(sp.attrs),
		})
		sp.mu.Unlock()
	}
	return snap
}

func copyAttrs(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SpanHeader is the HTTP header carrying the trace-local id of the
// caller's span on a cross-process request: the scatter client stamps
// each fan-out attempt's span id onto the outbound shard request, and
// the shard records it via Trace.SetParentSpan, so the assembled
// timeline nests the shard's work under the exact attempt (primary,
// hedge or retry) that carried it.
const SpanHeader = "X-Expertfind-Span"

type traceCtxKey struct{}

// TraceFrom returns the trace carried by ctx, or nil (inert) when the
// context is not traced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

type spanCtxKey struct{}

// ContextWithSpan threads a span through ctx so a downstream layer
// (the scatter client's hedged attempts) can nest its own child spans
// under it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil (inert).
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// KeepPolicy configures tail-sampled retention: which finished traces
// are copied into the tracer's bounded keep ring in addition to the
// newest-N recent ring. A plain newest-N ring evicts exactly the
// traces an operator needs — the slow, errored and degraded ones —
// under any flood of fast healthy queries; the keep ring retains them.
type KeepPolicy struct {
	// Capacity bounds the keep ring. 0 disables tail retention.
	Capacity int
	// SlowThreshold, when positive, keeps every trace at least this
	// slow even if nothing marked it explicitly.
	SlowThreshold time.Duration
}

// Tracer mints traces and keeps two bounded in-memory rings: the most
// recently finished traces, and a tail-sampled keep ring of the
// interesting ones (slow, errored, shed, degraded). All methods are
// safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	ring   []*Trace // newest at (next-1+len)%len once full
	next   int
	n      int
	policy KeepPolicy
	kring  []*Trace
	knext  int
	kn     int
}

// NewTracer returns a tracer retaining the last capacity finished
// traces (minimum 1). Tail retention starts with a keep ring of the
// same capacity and no slow threshold; tune it with SetKeepPolicy.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		ring:   make([]*Trace, capacity),
		policy: KeepPolicy{Capacity: capacity},
		kring:  make([]*Trace, capacity),
	}
}

// SetKeepPolicy replaces the tail-retention policy. Resizing the keep
// ring drops previously kept traces.
func (tr *Tracer) SetKeepPolicy(p KeepPolicy) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.policy = p
	if p.Capacity < 0 {
		tr.policy.Capacity = 0
	}
	tr.kring = make([]*Trace, tr.policy.Capacity)
	tr.knext, tr.kn = 0, 0
}

// KeepPolicy returns the current tail-retention policy.
func (tr *Tracer) KeepPolicy() KeepPolicy {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.policy
}

// Start mints a trace and attaches it to ctx. id names the trace
// externally (a request ID); empty generates one. Call Finish on the
// returned trace to publish it into the ring.
func (tr *Tracer) Start(ctx context.Context, name, id string) (context.Context, *Trace) {
	if id == "" {
		id = NewID()
	}
	t := &Trace{tracer: tr, id: id, name: name, start: time.Now()}
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

func (tr *Tracer) record(t *Trace) {
	t.mu.Lock()
	dur := t.dur
	keep := t.keep
	t.mu.Unlock()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !keep && tr.policy.SlowThreshold > 0 && dur >= tr.policy.SlowThreshold {
		keep = true
		t.mu.Lock()
		t.markKeepLocked("slow")
		t.mu.Unlock()
	}
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	if tr.n < len(tr.ring) {
		tr.n++
	}
	if keep && len(tr.kring) > 0 {
		t.mu.Lock()
		t.kept = true
		t.mu.Unlock()
		tr.kring[tr.knext] = t
		tr.knext = (tr.knext + 1) % len(tr.kring)
		if tr.kn < len(tr.kring) {
			tr.kn++
		}
	}
}

// newestFirst collects a ring's retained traces, newest first.
func newestFirst(ring []*Trace, next, n int) []*Trace {
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (next - 1 - i + 2*len(ring)) % len(ring)
		out = append(out, ring[idx])
	}
	return out
}

// Recent snapshots the retained traces, newest first, at most n of
// them (n <= 0 returns all retained).
func (tr *Tracer) Recent(n int) []TraceSnapshot {
	tr.mu.Lock()
	traces := newestFirst(tr.ring, tr.next, tr.n)
	tr.mu.Unlock()
	return snapshotAll(traces, n)
}

// Kept snapshots the tail-sampled keep ring — the retained slow,
// errored, shed and degraded traces — newest first, at most n of them
// (n <= 0 returns all kept).
func (tr *Tracer) Kept(n int) []TraceSnapshot {
	tr.mu.Lock()
	traces := newestFirst(tr.kring, tr.knext, tr.kn)
	tr.mu.Unlock()
	return snapshotAll(traces, n)
}

func snapshotAll(traces []*Trace, n int) []TraceSnapshot {
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	out := make([]TraceSnapshot, len(traces))
	for i, t := range traces {
		out[i] = t.snapshot()
	}
	return out
}

// Lookup returns every retained trace recorded under the given id,
// newest first — kept traces included, so a slow or degraded query
// stays addressable by request ID long after the recent ring has
// rotated past it. One request id can map to several traces on a
// shard process (the stats and find phases of one fan-out each record
// a trace).
func (tr *Tracer) Lookup(id string) []TraceSnapshot {
	tr.mu.Lock()
	seen := make(map[*Trace]bool)
	var traces []*Trace
	for _, t := range newestFirst(tr.kring, tr.knext, tr.kn) {
		if t.id == id && !seen[t] {
			seen[t] = true
			traces = append(traces, t)
		}
	}
	for _, t := range newestFirst(tr.ring, tr.next, tr.n) {
		if t.id == id && !seen[t] {
			seen[t] = true
			traces = append(traces, t)
		}
	}
	tr.mu.Unlock()
	return snapshotAll(traces, 0)
}

// Len returns how many traces the recent ring currently retains.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.n
}
