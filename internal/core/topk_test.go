package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

func assertMatchesBitIdentical(t *testing.T, label string, want, got []index.ScoredDoc) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Doc != got[i].Doc || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMatchesTopKBounded checks the TopK contract at the pipeline
// layer: Matches with TopK = k is the first k of the exhaustive
// reachable ranking, bit for bit, on a monolithic index and on a
// store whose memtable is cut into three ranges.
func TestMatchesTopKBounded(t *testing.T) {
	f, _ := buildFigure1(t)
	need := f.Pipeline().AnalyzeNeed("who is the best at freestyle swimming?")
	base := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}

	exhaustive := f.Matches(need, base)
	if len(exhaustive) < 2 {
		t.Fatalf("fixture yields %d matches; need at least 2", len(exhaustive))
	}
	store := storeClone(t, f, 3)

	for _, k := range []int{1, 2, len(exhaustive), len(exhaustive) + 10} {
		want := exhaustive
		if k < len(want) {
			want = want[:k]
		}
		p := base
		p.TopK = k
		assertMatchesBitIdentical(t, fmt.Sprintf("k%d mono", k), want, f.Matches(need, p))
		assertMatchesBitIdentical(t, fmt.Sprintf("k%d store", k), want, store.Matches(need, p))
	}
}

// TestFindTopKEndToEnd checks Find under a TopK bound: with k at
// least the full match count the expert ranking is bit-identical to
// the exhaustive one, and any k is deterministic and
// partition-invariant.
func TestFindTopKEndToEnd(t *testing.T) {
	f, _ := buildFigure1(t)
	const need = "who is the best at freestyle swimming?"
	base := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	exhaustive, _ := f.Find(context.Background(), need, base)

	pAll := base
	pAll.TopK = 1000
	all, _ := f.Find(context.Background(), need, pAll)
	assertExpertsBitIdentical(t, "k covers corpus", exhaustive, all)

	store := storeClone(t, f, 3)
	for _, k := range []int{1, 2, 1000} {
		p := base
		p.TopK = k
		want, _ := f.Find(context.Background(), need, p)
		again, _ := f.Find(context.Background(), need, p)
		assertExpertsBitIdentical(t, fmt.Sprintf("k%d repeat", k), want, again)
		stored, _ := store.Find(context.Background(), need, p)
		assertExpertsBitIdentical(t, fmt.Sprintf("k%d store", k), want, stored)
	}
}

// TestShardMatchesTopK drives the scatter entrypoint on a monolithic
// index and an in-memory store under the same (self-)global stats:
// every k, the exhaustive k = 0 included, must produce the exhaustive
// shard matches truncated to k.
func TestShardMatchesTopK(t *testing.T) {
	full, _ := buildFigure1(t)
	const need = "who is the best at freestyle swimming?"
	base := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}

	global := full.NeedStats(need)
	exhaustive := full.ShardMatches(context.Background(), need, base, global)
	if len(exhaustive) < 2 {
		t.Fatalf("fixture yields %d shard matches; need at least 2", len(exhaustive))
	}

	store := storeClone(t, full, 3)

	for _, k := range []int{0, 1, 2, len(exhaustive) + 5} {
		want := exhaustive
		if k > 0 && k < len(want) {
			want = want[:k]
		}
		p := base
		p.TopK = k
		if got := full.ShardMatches(context.Background(), need, p, global); !reflect.DeepEqual(got, want) {
			t.Fatalf("k%d mono:\n got %v\nwant %v", k, got, want)
		}
		if got := store.ShardMatches(context.Background(), need, p, global); !reflect.DeepEqual(got, want) {
			t.Fatalf("k%d store:\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestFingerprintTopK pins the cache-key behavior of the bound: zero
// and negative TopK share a fingerprint, every k below the window gets
// its own, a k the window covers shares the window's, and the window
// dimension still keys on its own.
func TestFingerprintTopK(t *testing.T) {
	base := Params{}
	if got, want := base.Fingerprint(), (Params{TopK: -3}).Fingerprint(); got != want {
		t.Fatalf("zero vs negative TopK fingerprints differ: %q vs %q", got, want)
	}
	k5 := Params{TopK: 5}.Fingerprint()
	k6 := Params{TopK: 6}.Fingerprint()
	if k5 == k6 || k5 == base.Fingerprint() {
		t.Fatalf("TopK not keyed: base=%q k5=%q k6=%q", base.Fingerprint(), k5, k6)
	}
	if got, want := (Params{TopK: 5, WindowSize: -1}).Fingerprint(), k5; got == want {
		t.Fatalf("window change did not change fingerprint alongside TopK")
	}

	// The key says what was computed: a TopK the window covers ranks as
	// the window alone does, so the two share one cache entry.
	w100 := Params{WindowSize: 100}.Fingerprint()
	if got := (Params{TopK: 500, WindowSize: 100}).Fingerprint(); got != w100 {
		t.Fatalf("topk=500&window=100 keyed %q, window=100 alone %q", got, w100)
	}
	if got := (Params{TopK: 500, WindowSize: 50}).Fingerprint(); got == w100 {
		t.Fatalf("window 50 and window 100 share %q under TopK 500", got)
	}
	// Where the window cannot bound the list, TopK is all that does.
	for _, p := range []Params{{WindowSize: -1}, {WindowFrac: 0.5}} {
		open, bounded := p, p
		bounded.TopK = 500
		if !strings.Contains(open.Fingerprint(), "|kall|") || !strings.Contains(bounded.Fingerprint(), "|k500|") {
			t.Fatalf("%+v: fingerprints %q and %q, want k fields all and 500", p, open.Fingerprint(), bounded.Fingerprint())
		}
	}
}
