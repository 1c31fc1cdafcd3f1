package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTracer(8)
	ctx, trace := tr.Start(context.Background(), "GET /v1/find", "req-1")
	if got := TraceFrom(ctx); got != trace {
		t.Fatal("TraceFrom did not return the started trace")
	}
	if trace.ID() != "req-1" {
		t.Fatalf("ID() = %q, want req-1", trace.ID())
	}
	trace.SetAttr("q", "java expert")
	for _, stage := range []string{"analyze", "traverse", "index_match", "aggregate_rank"} {
		sp := trace.StartSpan(stage)
		sp.SetAttr("stage", stage)
		sp.SetAttrInt("matches", 1900)
		sp.End()
	}
	trace.Finish()
	trace.Finish() // idempotent: must not double-publish

	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("Recent(0) returned %d traces", len(recent))
	}
	snap := recent[0]
	if snap.ID != "req-1" || snap.Attrs["q"] != "java expert" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	for i, want := range []string{"analyze", "traverse", "index_match", "aggregate_rank"} {
		if snap.Spans[i].Name != want {
			t.Errorf("span %d = %q, want %q", i, snap.Spans[i].Name, want)
		}
		if got := snap.Spans[i].Attrs["matches"]; got != "1900" {
			t.Errorf("span %d matches attr = %q, want 1900", i, got)
		}
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		_, trace := tr.Start(context.Background(), "q", fmt.Sprintf("id-%d", i))
		trace.Finish()
	}
	if tr.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	recent := tr.Recent(0)
	want := []string{"id-9", "id-8", "id-7", "id-6"} // newest first
	if len(recent) != len(want) {
		t.Fatalf("Recent(0) returned %d traces, want %d", len(recent), len(want))
	}
	for i, id := range want {
		if recent[i].ID != id {
			t.Errorf("recent[%d].ID = %q, want %q", i, recent[i].ID, id)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].ID != "id-9" {
		t.Fatalf("Recent(2) = %d traces, first %q", len(got), got[0].ID)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	// Instrumented code must run untouched on an untraced context.
	trace := TraceFrom(context.Background())
	if trace != nil {
		t.Fatal("TraceFrom on a bare context should be nil")
	}
	if trace.ID() != "" {
		t.Fatalf("nil ID() = %q", trace.ID())
	}
	trace.SetAttr("k", "v")
	sp := trace.StartSpan("stage")
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1900)
	sp.End()
	trace.Finish()
}

func TestTracerGeneratesID(t *testing.T) {
	tr := NewTracer(1)
	_, trace := tr.Start(context.Background(), "q", "")
	if len(trace.ID()) != 16 {
		t.Fatalf("generated ID = %q, want 16 hex chars", trace.ID())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, trace := tr.Start(context.Background(), "q", "")
				sp := trace.StartSpan("stage")
				sp.End()
				trace.Finish()
				if i%50 == 0 {
					_ = tr.Recent(0)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 16 {
		t.Fatalf("Len() = %d, want 16", tr.Len())
	}
}
