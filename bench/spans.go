package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are a later change).
// Spans of one request share Req; Parent is the span that caused it,
// 0 for a root. Pass numbers the replay the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at the end.
// The mutex is for the HTTP workload, whose handler spans are recorded
// on the server's goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setPass(p int) {
	t.mu.Lock()
	t.pass = p
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Pass: t.pass,
		Name: name, Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// best applies the best-of rule to a layer: request → the minimum
// duration its span of that name showed in any pass.
func (t *tracer) best(name string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if old, ok := out[s.Req]; !ok || d < old {
			out[s.Req] = d
		}
	}
	return out
}

// coverage is Σ child spans ÷ Σ root spans over every root of the
// given name: the share of the whole call that the layer calls under
// it account for. Far below 1 means time the layer table cannot see.
func (t *tracer) coverage(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[int]bool)
	var whole, parts int64
	for _, s := range t.spans {
		if s.Name == root {
			roots[s.ID] = true
			whole += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if roots[s.Parent] {
			parts += s.End - s.Start
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(parts) / float64(whole)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sumOf(m map[int]time.Duration) time.Duration {
	var s time.Duration
	for _, d := range m {
		s += d
	}
	return s
}

// medianOf is the median of a layer's best-of durations, optionally
// restricted to the requests keep selects.
func medianOf(m map[int]time.Duration, keep func(req int) bool) time.Duration {
	ds := make([]time.Duration, 0, len(m))
	for req, d := range m {
		if keep == nil || keep(req) {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
