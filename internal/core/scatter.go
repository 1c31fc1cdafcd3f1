package core

// Scatter-gather support: the shard-process half of distributed
// expert finding. A shard process owns one slice of the document
// space (routed by index.ShardRoute) but the full social graph, so it
// can score its slice under collection-global statistics and ship
// matches annotated with the candidate/distance evidence the
// coordinator needs to aggregate Eq. (3) — without the coordinator
// ever loading a corpus. The three pieces:
//
//	NeedStats    per-shard local df for a need's dimensions (phase 1)
//	ShardMatches globally-weighted matches of this shard's slice (phase 2)
//	RankMerged   coordinator-side Eq. (3) over the k-way-merged matches
//
// Determinism contract: with global stats equal to the index.SumStats
// of every shard's NeedStats, the concatenation (in scoredCmp order)
// of all shards' ShardMatches is bit-identical to a single process's
// Matches, and RankMerged over it is bit-identical to that process's
// Find — same plan weights, same per-document addition chains, same
// per-expert accumulation order, same total-order sorts.

import (
	"context"
	"time"

	"expertfind/internal/index"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// NeedStats analyzes the need and reports this finder's document
// count plus the local resource frequency of every term and entity
// the analyzed need mentions (absent dimensions report 0 and are
// omitted). Analysis is deterministic, so every shard derives the
// same dimension set from the same need text.
func (f *Finder) NeedStats(need string) index.GlobalStats {
	a := f.pipe.AnalyzeNeed(need)
	st := index.GlobalStats{
		Docs:     f.index.NumDocs(),
		TermDF:   make(map[string]int, len(a.Terms)),
		EntityDF: make(map[kb.EntityID]int, len(a.Entities)),
	}
	for t := range a.Terms {
		if df := f.index.DocFreq(t); df > 0 {
			st.TermDF[t] = df
		}
	}
	for e := range a.Entities {
		if df := f.index.EntityFreq(e); df > 0 {
			st.EntityDF[e] = df
		}
	}
	return st
}

// ShardMatch is one relevant resource of a shard's slice: its Eq. (1)
// score under global weights plus the candidate/distance pairs the
// resource is reachable from — everything Eq. (3) needs, so the
// coordinator can aggregate without a graph of its own. Cands
// preserves the reachability table's deterministic order.
type ShardMatch struct {
	Doc   index.DocID
	Score float64
	Cands []socialgraph.CandidateDistance
}

// ShardMatches runs the shard-local part of a scattered query:
// analyze the need, score this finder's document slice under the
// supplied global collection view, restrict to resources reachable
// from the candidate pool, and annotate each match with its
// candidate/distance evidence. Matches come back in the global
// ranking order (descending score, ascending doc), ready for a k-way
// merge with the other shards' lists. With a positive MatchBound k the
// shard prunes to (and ships) its local top k of the reachable set — a
// shard's slice of the global top k is always within the shard's local
// top k, so the coordinator's merge of these prefixes, truncated to k,
// is byte-identical to the single-process bounded ranking.
func (f *Finder) ShardMatches(ctx context.Context, need string, p Params, st index.CollectionStats) []ShardMatch {
	mQueries.Inc()
	sp, t0 := telemetry.TraceFrom(ctx).StartSpan("analyze"), time.Now()
	a := f.pipe.AnalyzeNeed(need)
	mStageSeconds.With("analyze").ObserveSince(t0)
	sp.End()

	scored, r := f.match(ctx, a, p, st)
	out := make([]ShardMatch, len(scored))
	for i, sd := range scored {
		out[i] = ShardMatch{Doc: sd.Doc, Score: sd.Score, Cands: r.table.Of(sd.Doc)}
	}
	return out
}

// RankMerged is the coordinator-side Eq. (3) aggregation over the
// k-way-merged shard matches. It runs the same aggregator as the
// single-process finder — the accumulation runs in merged-match ×
// candidate-list order, which over a complete merge equals the
// single-process addition order — so healthy-topology rankings are
// bit-identical to Finder.Find.
func RankMerged(matches []ShardMatch, p Params) []ExpertScore {
	return rank(len(matches), func(i int) (float64, []socialgraph.CandidateDistance) {
		return matches[i].Score, matches[i].Cands
	}, p)
}
