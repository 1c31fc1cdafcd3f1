package httpapi

// Shard-scoped endpoints: the server side of scatter-gather serving.
// A shard process serves its document slice to a coordinator through
// three routes — metadata for topology bootstrap, per-need collection
// statistics (fan-out phase one), and globally-weighted slice scoring
// (phase two). See internal/scatter for the protocol and the
// determinism contract.

import (
	"encoding/json"
	"net/http"

	"expertfind"
	"expertfind/internal/scatter"
)

// ShardOptions places a shard process in a scatter-gather topology.
type ShardOptions struct {
	// ID is this process's shard number, 0-based.
	ID int
	// Count is the topology size; the process must serve the document
	// slice index.ShardRoute assigns to ID of Count.
	Count int
}

// shardMeta serves GET /v1/shard/meta: this process's topology
// position, slice size, and the candidate pool with its fingerprint.
func (h *Handler) shardMeta(sys *expertfind.System, w http.ResponseWriter, _ *http.Request) {
	pool := sys.CoreFinder().Pool()
	writeJSON(w, http.StatusOK, scatter.Meta{
		ShardID:    h.opts.Shard.ID,
		ShardCount: h.opts.Shard.Count,
		NumDocs:    sys.Stats().Indexed,
		Group:      pool.Group(),
		Candidates: pool.Candidates(),
	})
}

// shardStats serves GET /v1/shard/stats?q=...: this slice's document
// count and local document frequencies for the need's dimensions,
// which the coordinator sums into the global collection view.
func (h *Handler) shardStats(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	need := r.Form.Get("q")
	if need == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameter: q")
		return
	}
	writeJSON(w, http.StatusOK, sys.CoreFinder().NeedStats(need))
}

// shardFind serves POST /v1/shard/find: score this slice under the
// coordinator's global statistics and return reachable matches with
// their candidate/distance evidence. The forwarded client parameters
// are resolved through the same parser as /v1/find, so a shard and a
// single-process server interpret a query identically.
func (h *Handler) shardFind(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	var req scatter.FindRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if req.Need == "" {
		writeError(w, r, http.StatusBadRequest, "missing required field: need")
		return
	}
	if err := req.Stats.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid stats: "+err.Error())
		return
	}
	opts, _, err := parseOptions(req.ParamValues())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	p, err := expertfind.ResolveParams(opts...)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	f := sys.CoreFinder()
	matches := f.ShardMatches(r.Context(), req.Need, p, req.Stats)
	writeJSON(w, http.StatusOK, scatter.FindResponse{
		Group:   f.Pool().Group(),
		Matches: scatter.MatchesFromCore(matches),
	})
}
