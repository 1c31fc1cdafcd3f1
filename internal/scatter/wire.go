// Package scatter implements scatter-gather serving: a coordinator
// that fans expert-finding queries out to shard processes, each
// owning one slice of the document space (index.ShardRoute), and
// k-way-merges their globally-weighted matches back into the exact
// ranking a single process would produce.
//
// A query runs in two fan-out phases. Phase one gathers each shard's
// local document frequencies for the need's dimensions; their sum is
// the global collection view, so shard slices score under the same
// plan weights as a monolithic index. Phase two ships that view back
// with the query; every shard scores its slice, restricts to
// resources reachable from the candidate pool, and returns matches
// annotated with candidate/distance evidence. The coordinator merges
// the sorted lists under the (score desc, doc asc) total order and
// aggregates Eq. (3) itself — it never loads a corpus.
//
// Every shard call runs under a robustness stack: a per-call deadline
// budget, bounded retries with backoff for transient failures, a
// hedged second request once the call outlives the shard's recent
// latency quantile, and a per-shard circuit breaker (half-open probes
// capped at one in flight). When shards are down the coordinator
// degrades instead of failing: it answers with the surviving shards'
// merged results, flags the response as degraded, and reports partial
// readiness — only a fully dead topology turns queries into errors.
package scatter

import (
	"fmt"
	"math"
	"net/url"

	"expertfind/internal/core"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// Meta identifies one shard process: its place in the topology, the
// slice it serves and the candidate pool it ranks, with the pool's
// core.GroupFingerprint. The coordinator bootstraps from every shard's
// meta and refuses mismatched topologies (wrong shard id or count,
// diverging candidate pools, a list whose ids do not strictly ascend).
type Meta struct {
	ShardID    int              `json:"shard_id"`
	ShardCount int              `json:"shard_count"`
	NumDocs    int              `json:"num_docs"`
	Group      string           `json:"group"`
	Candidates []core.Candidate `json:"candidates"`
}

// FindRequest is the phase-two payload: the need, the client's raw
// find parameters (forwarded verbatim so shards parse them exactly
// like a single-process server would), and the summed global
// statistics to plan under.
type FindRequest struct {
	Need   string              `json:"need"`
	Params map[string][]string `json:"params,omitempty"`
	Stats  index.GlobalStats   `json:"stats"`
}

// ParamValues returns the forwarded parameters as url.Values.
func (r FindRequest) ParamValues() url.Values { return url.Values(r.Params) }

// Match is one relevant resource of a shard's reply: document, global
// Eq. (1) score, and the (candidate, distance) pairs it is reachable
// from, in the shard's deterministic reachability order.
type Match struct {
	Doc   int32      `json:"doc"`
	Score float64    `json:"score"`
	Cands [][2]int32 `json:"cands"`
}

// FindResponse is one shard's phase-two reply. Matches are sorted by
// (score desc, doc asc); Group echoes the shard's candidate-pool
// fingerprint so a coordinator can detect a shard serving a different
// corpus mid-topology.
type FindResponse struct {
	Group   string  `json:"group"`
	Matches []Match `json:"matches"`
}

// MatchesFromCore converts a shard finder's matches to the wire form.
func MatchesFromCore(in []core.ShardMatch) []Match {
	out := make([]Match, len(in))
	for i, m := range in {
		cands := make([][2]int32, len(m.Cands))
		for j, cd := range m.Cands {
			cands[j] = [2]int32{int32(cd.Candidate), int32(cd.Distance)}
		}
		out[i] = Match{Doc: int32(m.Doc), Score: m.Score, Cands: cands}
	}
	return out
}

// toCore converts one wire match back to the finder's form,
// validating the score (Eq. (1) gives a finite non-negative one; a
// negative score would subtract from a candidate's evidence) and the
// distance range (a malformed distance would index out of the wr
// weight table).
func (m Match) toCore() (core.ShardMatch, error) {
	if m.Score < 0 || math.IsNaN(m.Score) || math.IsInf(m.Score, 0) {
		return core.ShardMatch{}, fmt.Errorf("doc %d: score %v is not finite and non-negative", m.Doc, m.Score)
	}
	cm := core.ShardMatch{
		Doc:   index.DocID(m.Doc),
		Score: m.Score,
		Cands: make([]socialgraph.CandidateDistance, len(m.Cands)),
	}
	for j, cd := range m.Cands {
		if cd[1] < 0 || cd[1] > 2 {
			return core.ShardMatch{}, fmt.Errorf("doc %d: distance %d outside [0,2]", m.Doc, cd[1])
		}
		cm.Cands[j] = socialgraph.CandidateDistance{
			Candidate: socialgraph.UserID(cd[0]),
			Distance:  int(cd[1]),
		}
	}
	return cm, nil
}
