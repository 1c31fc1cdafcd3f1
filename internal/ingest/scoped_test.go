package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// fullDelta is the reference a scoped round must reproduce: the whole
// remote catalog diffed against the installed graph.
func fullDelta(api faults.API, g *socialgraph.Graph) (Delta, error) {
	known := make([]socialgraph.ContainerID, g.NumContainers())
	for i := range known {
		known[i] = socialgraph.ContainerID(i)
	}
	cat, err := FetchCatalog(api, noRetry(), known)
	if err != nil {
		return Delta{}, err
	}
	return Diff(g, cat)
}

// checkNextRound reads the round ing is about to run, the way RunOnce
// reads it, and reports whether its delta differs from fullDelta's.
func checkNextRound(ing *Ingester) (full bool, err error) {
	got, rep, _, gotErr := ing.read(nil)
	want, wantErr := fullDelta(ing.cfg.API, ing.cfg.Graph)
	switch {
	case wantErr != nil:
		return rep.Full, fmt.Errorf("full diff: %v", wantErr)
	case gotErr != nil:
		return rep.Full, fmt.Errorf("round diff: %v", gotErr)
	case !reflect.DeepEqual(got, want):
		return rep.Full, fmt.Errorf("round delta (%d adds, %d updates, %d removes) differs from the full diff (%d, %d, %d)",
			len(got.Adds), len(got.Updates), len(got.Removes), len(want.Adds), len(want.Updates), len(want.Removes))
	}
	return rep.Full, nil
}

// scriptRound churns the remote between two rounds, then adds the
// record changes a scoped round must find through each kind of home
// owner: a resource created and deleted unseen (a
// filler, with adds after it), a profile add, a container-description
// update, a contained post and a remove.
func scriptRound(g *socialgraph.Graph, churn *Churn, rng *rand.Rand) {
	churn.Round()
	user := func() socialgraph.UserID { return socialgraph.UserID(rng.Intn(g.NumUsers())) }
	ghost := g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, user(), "deleted before any round saw it")
	g.RemoveResource(ghost)
	for {
		u, net := user(), socialgraph.Networks[rng.Intn(len(socialgraph.Networks))]
		if _, ok := g.Profile(u, net); !ok {
			g.SetProfile(u, net, "open water swimming coach and race commentator")
			break
		}
	}
	c := socialgraph.ContainerID(rng.Intn(g.NumContainers()))
	g.SetResourceText(g.Container(c).Desc, "a group about guitar music, recording sessions and the odd swim")
	g.AddContainedResource(socialgraph.KindGroupPost, c, user(), "anyone up for a drumming session this weekend")
	for {
		id := socialgraph.ResourceID(rng.Intn(g.NumResources()))
		if k := g.Resource(id).Kind; !g.ResourceDeleted(id) && k != socialgraph.KindProfile && k != socialgraph.KindContainerDesc {
			g.RemoveResource(id)
			break
		}
	}
}

// scopedOracle ingests rounds scripted rounds of churn seed into a
// replica, through the API wrap makes of the remote's, and before each
// round checks that the round's delta equals the full diff's. It
// returns the first difference.
func scopedOracle(t *testing.T, seed int64, rounds int, wrap func(faults.API, *socialgraph.Graph) faults.API) error {
	cfg := dataset.Config{Seed: 5, Scale: 0.03}
	remote, installed := dataset.Generate(cfg).Graph, dataset.Generate(cfg).Graph
	ix, pipe := buildIndex(installed, 2)
	f := core.NewFinder(installed, ix, pipe, nil)
	warmTables(f)
	ing := New(Config{API: wrap(reliableAPI(remote), remote), Graph: installed, Index: ix, Pipe: pipe, Finders: []*core.Finder{f}})
	churn := NewChurn(remote, ChurnConfig{Seed: seed, Adds: 4, Updates: 10, Removes: 3})
	rng := rand.New(rand.NewSource(seed))
	assertIndexedIffAnalysable(t, fmt.Sprintf("seed %d cold build", seed), ix, installed, pipe)
	for r := 0; r < rounds; r++ {
		scriptRound(remote, churn, rng)
		full, err := checkNextRound(ing)
		if err != nil {
			return fmt.Errorf("seed %d round %d: %w", seed, r, err)
		}
		if want := r == 0; full != want {
			t.Fatalf("seed %d round %d: full = %t, want %t", seed, r, full, want)
		}
		if _, err := ing.RunOnce(context.Background()); err != nil {
			return fmt.Errorf("seed %d round %d: RunOnce: %w", seed, r, err)
		}
		assertTablesCurrent(t, fmt.Sprintf("seed %d round %d", seed, r), f)
		assertIndexedIffAnalysable(t, fmt.Sprintf("seed %d round %d", seed, r), ix, installed, pipe)
	}
	assertGraphsEqual(t, installed, remote)
	assertIndexMatchesRebuild(t, "after scoped rounds", ix, remote, 2)
	return nil
}

// assertIndexedIffAnalysable checks the invariant planApply classifies
// removes and updates by: the index holds an installed resource iff its
// installed text analyses OK, so asking the index replaces analysing
// the old text again.
func assertIndexedIffAnalysable(t *testing.T, label string, ix *index.Store, g *socialgraph.Graph, pipe *analysis.Pipeline) {
	t.Helper()
	for i := 0; i < g.NumResources(); i++ {
		id := socialgraph.ResourceID(i)
		want := false
		if !g.ResourceDeleted(id) {
			r := g.Resource(id)
			_, want = pipe.Analyze(r.Text, r.URLs)
		}
		if got := ix.Has(id); got != want {
			t.Fatalf("%s: resource %d: index Has = %t, installed text analyses OK = %t", label, id, got, want)
		}
	}
}

// mutantFeed plants one fault in a correct change feed, to show the
// oracle catches it.
type mutantFeed struct {
	faults.API
	g    *socialgraph.Graph
	edit func(v *faults.ChangeView, g *socialgraph.Graph)
}

func (m mutantFeed) ChangedSince(net socialgraph.Network, cursor uint64) (*faults.ChangeView, error) {
	v, err := m.API.ChangedSince(net, cursor)
	if err == nil {
		m.edit(v, m.g)
	}
	return v, err
}

// TestIngestScopedDeltaEqualsFull is the scoped round's oracle: over
// several churn seeds, every round's delta — full on the first,
// scoped after it — equals Diff against a freshly fetched full
// catalog, element for element. Two planted feed faults must each
// fail it.
func TestIngestScopedDeltaEqualsFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		if err := scopedOracle(t, seed, 5, func(api faults.API, _ *socialgraph.Graph) faults.API { return api }); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []struct {
		name string
		edit func(v *faults.ChangeView, g *socialgraph.Graph)
	}{
		{"omits removed ids", func(v *faults.ChangeView, g *socialgraph.Graph) {
			v.IDs = slices.DeleteFunc(v.IDs, g.ResourceDeleted)
		}},
		{"omits description owners", func(v *faults.ChangeView, _ *socialgraph.Graph) { v.Containers = nil }},
	} {
		t.Run("mutant "+m.name, func(t *testing.T) {
			err := scopedOracle(t, 1, 5, func(api faults.API, remote *socialgraph.Graph) faults.API {
				return mutantFeed{API: api, g: remote, edit: m.edit}
			})
			if err == nil {
				t.Fatal("the oracle passed a feed that " + m.name)
			}
			t.Log(err)
		})
	}
}

// usersDown fails every FetchUser call while the change feeds answer,
// so a scoped round fails after its feed calls succeed.
type usersDown struct{ faults.API }

func (usersDown) FetchUser(_ socialgraph.UserID, net socialgraph.Network) (*faults.UserView, error) {
	return nil, &faults.APIError{Kind: faults.Unavailable, Network: net}
}

// TestScopedAbortKeepsCursors: a scoped round that fails its fetch
// commits no cursor, so the next round's delta still holds every
// change the aborted round missed.
func TestScopedAbortKeepsCursors(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 2, nil)
	api := reliableAPI(remote.g)
	ing := New(Config{API: api, Graph: installed.g, Index: sys.ix, Pipe: sys.pipe,
		Retry: resilience.RetryPolicy{MaxAttempts: 1}})
	ctx := context.Background()
	if rep, err := ing.RunOnce(ctx); err != nil || !rep.Full {
		t.Fatalf("first round = %+v, %v; want a full round", rep, err)
	}

	remote.g.SetResourceText(remote.docA, "freestyle swimming at dawn")
	remote.g.RemoveResource(remote.docB)
	remote.g.AddResource(socialgraph.Facebook, socialgraph.KindPost, remote.uc, "guitar lesson notes")
	ing.cfg.API = usersDown{api}
	if _, err := ing.RunOnce(ctx); err == nil || !strings.Contains(err.Error(), "fetch user") {
		t.Fatalf("scoped round against a user outage: err = %v", err)
	}

	ing.cfg.API = api
	rep, err := ing.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full || rep.Adds != 1 || rep.Updates != 1 || rep.Removes != 1 {
		t.Fatalf("round after the abort = %+v, want a scoped round with one add, update and remove", rep)
	}
	assertGraphsEqual(t, installed.g, remote.g)
	assertIndexMatchesRebuild(t, "after the retried round", sys.ix, remote.g, 2)
}

// TestExpiredFeedRunsFull: more record changes between two rounds
// than the journal keeps expire the cursor, and the round falls back
// to a full one with the full diff's delta.
func TestExpiredFeedRunsFull(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 2, nil)
	ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe})
	ctx := context.Background()
	if _, err := ing.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	remote.g.RemoveResource(remote.docB)
	for i := 0; i <= socialgraph.JournalWindow; i++ {
		remote.g.SetResourceText(remote.docA, fmt.Sprintf("freestyle swimming lap %d", i%2))
	}
	full, err := checkNextRound(ing)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ing.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !full || !rep.Full || rep.Updates != 1 || rep.Removes != 1 {
		t.Fatalf("round past the journal window = %+v (read full=%t), want a full round with one update and one remove", rep, full)
	}
	assertGraphsEqual(t, installed.g, remote.g)
}

// TestPeriodicFullRound: the first round and every fullEvery-th one
// fetch the whole catalog even though the feeds could answer, and the
// report, the status and the round trace each say which kind ran.
func TestPeriodicFullRound(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 1, nil)
	tracer := telemetry.NewTracer(4)
	ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe,
		Finders: []*core.Finder{sys.finder}, Tracer: tracer})
	ctx := context.Background()
	for r := 0; r <= fullEvery; r++ {
		remote.g.SetResourceText(remote.docA, fmt.Sprintf("freestyle swimming training, week %d", r))
		rep, err := ing.RunOnce(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		want := r%fullEvery == 0
		if rep.Full != want || rep.Updates != 1 {
			t.Fatalf("round %d = %+v, want full=%t with one update", r, rep, want)
		}
		if st := ing.Status(); st.Last.Full != want {
			t.Fatalf("round %d: status last round full=%t", r, st.Last.Full)
		}
		wantAttr := map[bool]string{true: "full", false: "scoped"}[want]
		if got := tracer.Recent(1)[0].Attrs["fetch"]; got != wantAttr {
			t.Fatalf("round %d: trace fetch=%q, want %q", r, got, wantAttr)
		}
		if !want && rep.Catalog >= installed.g.NumResources() {
			t.Fatalf("round %d: scoped round fetched %d records of %d", r, rep.Catalog, installed.g.NumResources())
		}
	}
}

// countingCache is a ScopedCache holding nothing: it makes a round
// compute the posting diffs its invalidation needs.
type countingCache struct{ calls int }

func (c *countingCache) InvalidateMatching(func(core.CacheKey) bool) int {
	c.calls++
	return 0
}

// TestApplyAnalysesOnlyNewTexts: a round analyses the updates' new
// texts and the adds, and removes by id; the old text of an indexed
// update is analysed only for a cache's posting diff. The ingest_apply
// span and the analysed-texts counter say so.
func TestApplyAnalysesOnlyNewTexts(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%t", withCache), func(t *testing.T) {
			remote, installed := buildFixture(), buildFixture()
			sys := buildSystem(installed.g, 1, nil)
			tracer := telemetry.NewTracer(4)
			cfg := Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe,
				Finders: []*core.Finder{sys.finder}, Tracer: tracer}
			cache := &countingCache{}
			if withCache {
				cfg.Cache = cache
			}
			ing := New(cfg)
			remote.g.SetResourceText(remote.docA, "freestyle swimming drills at the pool every evening")
			remote.g.RemoveResource(remote.docB)
			remote.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, remote.ua, "open water swimming race this weekend")
			before := mAnalysed.Value()
			rep, err := ing.RunOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Adds != 1 || rep.Updates != 1 || rep.Removes != 1 {
				t.Fatalf("round = %+v, want one add, one update and one remove", rep)
			}
			want := 2 // the update's new text and the add
			if withCache {
				want++ // the update's old text, for the posting diff
			}
			var apply telemetry.SpanSnapshot
			for _, sp := range tracer.Recent(1)[0].Spans {
				if sp.Name == "ingest_apply" {
					apply = sp
				}
			}
			if got := apply.Attrs["analysed_texts"]; got != strconv.Itoa(want) {
				t.Fatalf("ingest_apply analysed_texts = %q, want %d", got, want)
			}
			if got := apply.Attrs["removed_by_id"]; got != "2" {
				t.Fatalf("ingest_apply removed_by_id = %q, want 2 (the remove and the update)", got)
			}
			if got := mAnalysed.Value() - before; got != float64(want) {
				t.Fatalf("%s grew by %g, want %d", "expertfind_ingest_analysed_texts_total", got, want)
			}
			if withCache && cache.calls != 1 {
				t.Fatalf("the cache was invalidated %d times, want once", cache.calls)
			}
			assertIndexMatchesRebuild(t, "after the round", sys.ix, installed.g, 1)
		})
	}
}
