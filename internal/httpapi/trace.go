package httpapi

// Trace retrieval endpoints: by-request-id lookup, the shard-side
// trace export the coordinator assembles timelines from, and the
// human-readable slow/errored trace view. See ARCHITECTURE.md for the
// cross-process assembly diagram.

import (
	"fmt"
	"net/http"
	"time"

	"expertfind/internal/telemetry"
)

// traceByID serves GET /debug/traces/{rid} on a single-process or
// shard server: every retained trace recorded under that request id
// (newest first), from the keep ring or the recent ring. On a
// coordinator the same route serves the assembled cross-process
// timeline instead.
func (h *Handler) traceByID(w http.ResponseWriter, r *http.Request) {
	rid := sanitizeRequestID(r.PathValue("rid"))
	if rid == "" {
		writeError(w, r, http.StatusBadRequest, "invalid request id")
		return
	}
	traces := h.tracer.Lookup(rid)
	if len(traces) == 0 {
		writeError(w, r, http.StatusNotFound, "no trace retained for request id "+rid)
		return
	}
	writeJSON(w, http.StatusOK, traces)
}

// shardTrace serves GET /v1/shard/trace?rid=...: the span snapshots
// this shard process retained for one request id, which the
// coordinator stitches into the cross-process timeline. An unknown id
// is an empty list, not an error — a shard that restarted mid-query
// legitimately has nothing.
func (h *Handler) shardTrace(w http.ResponseWriter, r *http.Request) {
	rid := sanitizeRequestID(r.URL.Query().Get("rid"))
	if rid == "" {
		writeError(w, r, http.StatusBadRequest, "missing or invalid parameter: rid")
		return
	}
	traces := h.tracer.Lookup(rid)
	if traces == nil {
		traces = []telemetry.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// serveSlow renders the tail-sampled keep ring as text: one block per
// retained slow/errored/shed/degraded trace, spans indented under
// their parents. This is the "which queries hurt recently" page of the
// debugging runbook (OPERATIONS.md).
func serveSlow(tr *telemetry.Tracer, w http.ResponseWriter, _ *http.Request) {
	kept := tr.Kept(0)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	policy := tr.KeepPolicy()
	fmt.Fprintf(w, "%d retained traces (keep ring capacity %d, slow threshold %s)\n",
		len(kept), policy.Capacity, policy.SlowThreshold)
	for _, t := range kept {
		fmt.Fprintf(w, "\n%s  rid=%s  %s  %.3fms  status=%s  keep=%s\n",
			t.Start.UTC().Format(time.RFC3339Nano), t.ID, t.Name,
			float64(t.DurationUS)/1000, t.Attrs["status"], t.Attrs["keep"])
		depth := spanDepths(t.Spans)
		for _, sp := range t.Spans {
			fmt.Fprintf(w, "  %*s%-28s +%.3fms  %.3fms",
				2*depth[sp.ID], "", sp.Name,
				float64(sp.StartOffsetUS)/1000, float64(sp.DurationUS)/1000)
			if e := sp.Attrs["error"]; e != "" {
				fmt.Fprintf(w, "  error=%s", e)
			}
			fmt.Fprintln(w)
		}
	}
}

// spanDepths computes each span's nesting depth from its parent chain.
func spanDepths(spans []telemetry.SpanSnapshot) map[string]int {
	depth := make(map[string]int, len(spans))
	for _, sp := range spans { // spans are recorded in start order, parents first
		if sp.Parent != "" {
			depth[sp.ID] = depth[sp.Parent] + 1
		}
	}
	return depth
}
