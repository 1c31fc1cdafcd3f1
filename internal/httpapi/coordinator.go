package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"expertfind"
	"expertfind/internal/scatter"
	"expertfind/internal/telemetry"
)

// DegradedHeader flags responses computed from a partial topology.
// Its value is "shards=<down>/<total>", so operators (and the load
// harness) can read the blast radius straight off the response.
const DegradedHeader = "X-Expertfind-Degraded"

func degradedValue(down, total int) string {
	return fmt.Sprintf("shards=%d/%d", down, total)
}

// CoordinatorHandler serves the public expert-finding API from a
// scatter-gather coordinator instead of a local corpus: /v1/find fans
// out to the shard topology and merges. It is built on the same base
// as Handler — middleware chain, common routes, metrics, error shapes
// and the /v1 guard — and its healthy-topology /v1/find bodies are
// byte-identical to a single-process server's.
type CoordinatorHandler struct {
	base
	co  *scatter.Coordinator
	asm *assemblyCache
}

// NewCoordinator returns the API handler for a coordinator process.
func NewCoordinator(co *scatter.Coordinator, opts Options) *CoordinatorHandler {
	h := &CoordinatorHandler{base: newBase(opts), co: co, asm: newAssemblyCache(64)}
	h.onKept = h.assembleAndCache
	h.mux.HandleFunc("GET /readyz", h.ready)
	h.mux.HandleFunc("GET /debug/traces/{rid}", h.traceByID)
	h.mux.HandleFunc("GET /v1/find", guard(&h.base, func() *scatter.Coordinator { return co }, h.find))
	// Topology state is ops state: outside the guard, so it answers
	// while the concurrency cap is saturated.
	h.mux.HandleFunc("GET /v1/shards", h.shards)
	return h
}

// ready distinguishes three topology states: ready (every shard
// passes its readiness probe), degraded (some but not all shards up —
// 200, so balancers keep routing, with the degraded header and counts
// for operators), and unavailable (no shard up, or the topology never
// bootstrapped — 503).
func (h *CoordinatorHandler) ready(w http.ResponseWriter, r *http.Request) {
	up, total := h.co.Probe(r.Context())
	if _, _, boot := h.co.Health(); !boot {
		if err := h.co.Bootstrap(r.Context()); err != nil {
			writeUnavailable(w, r, "topology not bootstrapped")
			return
		}
	}
	switch {
	case up == 0:
		writeUnavailable(w, r, "no shards reachable")
	case up < total:
		w.Header().Set(DegradedHeader, degradedValue(total-up, total))
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "degraded", "shards_up": up, "shards_total": total,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// shards reports the topology as of the latest probes: base URLs,
// which shards are down, and whether bootstrap completed.
func (h *CoordinatorHandler) shards(w http.ResponseWriter, r *http.Request) {
	up, total := h.co.Probe(r.Context())
	_, _, boot := h.co.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":       h.co.ShardBases(),
		"unready":      h.co.UnreadyShards(),
		"shards_up":    up,
		"shards_total": total,
		"bootstrapped": boot,
	})
}

// degradedInfo is findResponse's report of the shards a coordinator's
// answer is missing.
type degradedInfo struct {
	ShardsDown  int `json:"shards_down"`
	ShardsTotal int `json:"shards_total"`
}

func (h *CoordinatorHandler) find(co *scatter.Coordinator, w http.ResponseWriter, r *http.Request) {
	q := r.Form
	need := q.Get("q")
	if need == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameter: q")
		return
	}
	opts, top, err := parseOptions(q)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	p, err := expertfind.ResolveParams(opts...)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}

	res, err := co.Find(r.Context(), need, q, p)
	if err != nil {
		telemetry.TraceFrom(r.Context()).SetAttr("error", err.Error())
		var mal *scatter.MalformedError
		switch {
		case errors.As(err, &mal):
			writeError(w, r, http.StatusBadGateway, err.Error())
		case errors.Is(err, scatter.ErrNoShards), errors.Is(err, scatter.ErrNotBootstrapped):
			writeUnavailable(w, r, err.Error())
		default:
			writeError(w, r, http.StatusInternalServerError, err.Error())
		}
		return
	}

	var degraded *degradedInfo
	if res.Degraded {
		w.Header().Set(DegradedHeader, degradedValue(res.ShardsDown, res.ShardsTotal))
		degraded = &degradedInfo{ShardsDown: res.ShardsDown, ShardsTotal: res.ShardsTotal}
	}
	writeFind(w, need, res.Ranking, top, res.Pool, degraded)
}

// traceByID serves GET /debug/traces/{rid} on the coordinator: the
// assembled cross-process timeline of one query — coordinator spans
// plus the span snapshots fetched from every shard process, stitched
// under the fan-out attempts that carried them. Kept queries are
// served from the eager assembly cache (so the timeline survives the
// shards' own ring rotation); anything still in the local rings is
// assembled live.
func (h *CoordinatorHandler) traceByID(w http.ResponseWriter, r *http.Request) {
	rid := sanitizeRequestID(r.PathValue("rid"))
	if rid == "" {
		writeError(w, r, http.StatusBadRequest, "invalid request id")
		return
	}
	if body, ok := h.asm.get(rid); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	local := h.tracer.Lookup(rid)
	if len(local) == 0 {
		writeError(w, r, http.StatusNotFound, "no trace retained for request id "+rid)
		return
	}
	asm := scatter.AssembleTrace(local[0], h.co.FetchShardTraces(r.Context(), rid))
	writeJSON(w, http.StatusOK, asm)
}

// assembleAndCache eagerly assembles the timeline of a query that just
// landed in the keep ring (degraded, errored, shed, slow), while every
// shard still retains its side, and caches it so /debug/traces/{rid}
// answers long after shard rings rotate. Shards record their traces
// moments after their responses are written, so the fetch retries
// briefly until at least one shard has contributed (or gives up and
// caches the coordinator-only view).
func (h *CoordinatorHandler) assembleAndCache(rid string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for attempt := 0; ; attempt++ {
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
		local := h.tracer.Lookup(rid)
		if len(local) == 0 {
			return
		}
		asm := scatter.AssembleTrace(local[0], h.co.FetchShardTraces(ctx, rid))
		if asm.ShardProcesses > 0 || attempt >= 2 {
			if body, err := json.Marshal(asm); err == nil {
				h.asm.put(rid, body)
			}
			return
		}
	}
}

// assemblyCache is a bounded FIFO of assembled timelines, keyed by
// request id; the newest assembly for an id wins.
type assemblyCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string][]byte
	order   []string
}

func newAssemblyCache(capacity int) *assemblyCache {
	return &assemblyCache{cap: capacity, entries: make(map[string][]byte)}
}

func (c *assemblyCache) put(rid string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[rid]; !ok {
		c.order = append(c.order, rid)
		for len(c.order) > c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.entries[rid] = body
}

func (c *assemblyCache) get(rid string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.entries[rid]
	return body, ok
}
