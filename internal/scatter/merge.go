package scatter

import (
	"fmt"

	"expertfind/internal/core"
	"expertfind/internal/index"
)

// MalformedError reports a shard reply that violates the merge
// contract (unsorted matches, duplicate documents across shards, or
// out-of-range distances). The coordinator surfaces it as a bad
// gateway rather than silently merging corrupt evidence.
type MalformedError struct {
	Shard int
	Err   error
}

// Error formats the offending shard and the contract violation.
func (e *MalformedError) Error() string {
	return fmt.Sprintf("scatter: malformed reply from shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying violation for errors.Is/As.
func (e *MalformedError) Unwrap() error { return e.Err }

// mergeLess is the global ranking comparator (descending score, ties
// by ascending document id) — the same total order index.scoredCmp
// imposes, so the merged list equals the single-process ranking.
func mergeLess(a, b core.ShardMatch) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// mergeList pairs one shard's converted matches with the shard id
// that produced them, for error attribution.
type mergeList struct {
	shard   int
	matches []core.ShardMatch
}

// Merge k-way merges per-shard match lists into the global ranking.
// Each input list must already be sorted under the global total order
// (descending score, ascending doc) and the lists must be disjoint —
// every document lives on exactly one shard. Violations mean a buggy
// or lying shard, and Merge rejects them with a MalformedError
// instead of producing a plausible-looking wrong ranking: an unsorted
// list would merge out of order, and a duplicated document would
// double-count its score in Eq. (3).
func Merge(lists []mergeList) ([]core.ShardMatch, error) {
	total := 0
	for _, l := range lists {
		for i := 1; i < len(l.matches); i++ {
			if !mergeLess(l.matches[i-1], l.matches[i]) {
				return nil, &MalformedError{Shard: l.shard, Err: fmt.Errorf(
					"matches not strictly ordered at position %d (doc %d then doc %d)",
					i, l.matches[i-1].Doc, l.matches[i].Doc)}
			}
		}
		total += len(l.matches)
	}

	out := make([]core.ShardMatch, 0, total)
	heads := make([]int, len(lists))
	seen := make(map[index.DocID]int, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l.matches) {
				continue
			}
			if best == -1 || mergeLess(l.matches[heads[i]], lists[best].matches[heads[best]]) {
				best = i
			}
		}
		m := lists[best].matches[heads[best]]
		if prev, dup := seen[m.Doc]; dup {
			return nil, &MalformedError{Shard: lists[best].shard, Err: fmt.Errorf(
				"doc %d already reported by shard %d", m.Doc, prev)}
		}
		seen[m.Doc] = lists[best].shard
		out = append(out, m)
		heads[best]++
	}
	return out, nil
}

// convertResponse validates one shard's find reply (group fingerprint
// and per-match shape) and converts it to the finder's match form.
func convertResponse(shard int, group string, resp FindResponse) (mergeList, error) {
	if resp.Group != group {
		return mergeList{}, &MalformedError{Shard: shard, Err: fmt.Errorf(
			"candidate-pool fingerprint %q does not match topology %q", resp.Group, group)}
	}
	ml := mergeList{shard: shard, matches: make([]core.ShardMatch, len(resp.Matches))}
	for i, m := range resp.Matches {
		cm, err := m.toCore()
		if err != nil {
			return mergeList{}, &MalformedError{Shard: shard, Err: err}
		}
		ml.matches[i] = cm
	}
	return ml, nil
}
