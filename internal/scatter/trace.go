package scatter

// Cross-process trace assembly. Each shard process retains span
// snapshots per request id (httpapi's /v1/shard/trace); the
// coordinator fetches them after an interesting query and stitches
// them under its own trace into one timeline. Span identity is
// qualified by process so parent references never collide:
// "coordinator/s3" is the coordinator's third span, "shard1/t0" is
// the root of shard 1's first trace for the request, "shard1/t0/s2"
// a span inside it. A shard trace's root attaches to the coordinator
// span named in its parent_span_id — the exact fan-out attempt
// (primary, hedge or retry) that carried the request, propagated via
// the X-Expertfind-Span header.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"expertfind/internal/telemetry"
)

// ShardTraces is one shard's contribution to an assembled timeline:
// every trace it retained for the request id (the stats and find
// phases each record one), or the fetch error.
type ShardTraces struct {
	Shard  int                       `json:"shard"`
	Base   string                    `json:"base"`
	Traces []telemetry.TraceSnapshot `json:"traces,omitempty"`
	Error  string                    `json:"error,omitempty"`
}

// AssembledSpan is one span of a stitched cross-process timeline.
// Offsets are relative to the coordinator trace's start; shard spans
// can be slightly negative under clock skew between processes.
type AssembledSpan struct {
	Process       string            `json:"process"`
	ID            string            `json:"span_id"`
	Parent        string            `json:"parent_span_id,omitempty"`
	Name          string            `json:"name"`
	StartOffsetUS int64             `json:"start_offset_us"`
	DurationUS    int64             `json:"duration_us"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// AssembledTrace is the stitched timeline of one distributed query:
// the coordinator's spans plus every shard's retained spans for the
// same request id, in one start-ordered list with cross-process
// parent references. Assembling the same inputs twice yields
// byte-identical JSON.
type AssembledTrace struct {
	ID             string            `json:"id"`
	Name           string            `json:"name"`
	Start          time.Time         `json:"start"`
	DurationUS     int64             `json:"duration_us"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	ShardProcesses int               `json:"shard_processes"`
	ShardErrors    map[string]string `json:"shard_errors,omitempty"`
	Spans          []AssembledSpan   `json:"spans"`
}

// trace fetches the shard's retained traces for one request id. Like
// readiness probes it bypasses the breaker and retry stack: trace
// retrieval is diagnostic traffic and must not consume the robustness
// budget of real queries (nor be shielded by it).
func (c *shardClient) trace(ctx context.Context, rid string) ([]telemetry.TraceSnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	u := c.base + "/v1/shard/trace?" + url.Values{"rid": {rid}}.Encode()
	raw, err := c.roundTrip(ctx, "trace", http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	var out []telemetry.TraceSnapshot
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("scatter: shard %d trace reply: %w", c.id, err)
	}
	return out, nil
}

// FetchShardTraces collects every shard's retained traces for one
// request id, in parallel. Unreachable shards report their error in
// the result instead of failing the fetch — a partially assembled
// timeline of a degraded query is exactly the artifact an operator
// needs.
func (c *Coordinator) FetchShardTraces(ctx context.Context, rid string) []ShardTraces {
	out := make([]ShardTraces, len(c.clients))
	c.each(func(i int, cl *shardClient) {
		out[i] = ShardTraces{Shard: cl.id, Base: cl.base}
		traces, err := cl.trace(ctx, rid)
		if err != nil {
			out[i].Error = err.Error()
			return
		}
		out[i].Traces = traces
	})
	return out
}

// AssembleTrace stitches a coordinator trace and the shards'
// contributions into one timeline. Pure: same inputs, same output.
func AssembleTrace(coord telemetry.TraceSnapshot, shards []ShardTraces) AssembledTrace {
	asm := AssembledTrace{
		ID:         coord.ID,
		Name:       coord.Name,
		Start:      coord.Start,
		DurationUS: coord.DurationUS,
		Attrs:      coord.Attrs,
	}
	for _, sp := range coord.Spans {
		parent := ""
		if sp.Parent != "" {
			parent = "coordinator/" + sp.Parent
		}
		asm.Spans = append(asm.Spans, AssembledSpan{
			Process:       "coordinator",
			ID:            "coordinator/" + sp.ID,
			Parent:        parent,
			Name:          sp.Name,
			StartOffsetUS: sp.StartOffsetUS,
			DurationUS:    sp.DurationUS,
			Attrs:         sp.Attrs,
		})
	}
	for _, st := range shards {
		if st.Error != "" {
			if asm.ShardErrors == nil {
				asm.ShardErrors = make(map[string]string)
			}
			asm.ShardErrors[strconv.Itoa(st.Shard)] = st.Error
			continue
		}
		if len(st.Traces) == 0 {
			continue
		}
		asm.ShardProcesses++
		proc := fmt.Sprintf("shard%d", st.Shard)
		for ti, t := range st.Traces {
			prefix := fmt.Sprintf("%s/t%d", proc, ti)
			rootParent := ""
			if t.ParentSpan != "" {
				rootParent = "coordinator/" + t.ParentSpan
			}
			offset := t.Start.Sub(coord.Start).Microseconds()
			// The shard trace itself becomes a span, so the shard's
			// request handling shows up as a bar under the coordinator
			// attempt that carried it.
			asm.Spans = append(asm.Spans, AssembledSpan{
				Process:       proc,
				ID:            prefix,
				Parent:        rootParent,
				Name:          t.Name,
				StartOffsetUS: offset,
				DurationUS:    t.DurationUS,
				Attrs:         t.Attrs,
			})
			for _, sp := range t.Spans {
				parent := prefix
				if sp.Parent != "" {
					parent = prefix + "/" + sp.Parent
				}
				asm.Spans = append(asm.Spans, AssembledSpan{
					Process:       proc,
					ID:            prefix + "/" + sp.ID,
					Parent:        parent,
					Name:          sp.Name,
					StartOffsetUS: offset + sp.StartOffsetUS,
					DurationUS:    sp.DurationUS,
					Attrs:         sp.Attrs,
				})
			}
		}
	}
	sort.SliceStable(asm.Spans, func(i, j int) bool {
		a, b := asm.Spans[i], asm.Spans[j]
		if a.StartOffsetUS != b.StartOffsetUS {
			return a.StartOffsetUS < b.StartOffsetUS
		}
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		return a.ID < b.ID
	})
	return asm
}
