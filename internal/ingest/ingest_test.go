package ingest

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/rescache"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
)

// fixture is a small two-pool corpus. buildFixture is deterministic,
// so calling it twice yields same-ID replicas — the ingest contract.
type fixture struct {
	g          *socialgraph.Graph
	ua, ub, uc socialgraph.UserID
	docA, docB socialgraph.ResourceID
	cont       socialgraph.ContainerID
}

func buildFixture() *fixture {
	g := socialgraph.New()
	f := &fixture{g: g}
	f.ua = g.AddUser("ann", true)
	f.ub = g.AddUser("bob", true)
	f.uc = g.AddUser("carol", false)
	g.SetProfile(f.ua, socialgraph.Twitter, "racing sports fan and commentator")
	g.SetProfile(f.ub, socialgraph.Facebook, "guitar teacher living downtown")
	g.SetProfile(f.uc, socialgraph.Facebook, "just here for the memes and chatter")
	f.docA = g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, f.ua,
		"freestyle swimming training at the pool every morning")
	f.docB = g.AddResource(socialgraph.Facebook, socialgraph.KindPost, f.ub,
		"new guitar solo recorded with the band last night")
	f.cont = g.AddContainer(socialgraph.Facebook, socialgraph.ContainerGroup, f.uc,
		"music makers", "a group about guitar music and recording sessions")
	g.RelatesTo(f.uc, f.cont)
	g.AddContainedResource(socialgraph.KindGroupPost, f.cont, f.uc,
		"looking for a drummer to join our weekend sessions")
	g.AddResource(socialgraph.Facebook, socialgraph.KindPost, f.uc,
		"what a great match last night, incredible game to watch")
	return f
}

// system bundles an installed serving stack over a replica graph.
type system struct {
	g      *socialgraph.Graph
	pipe   *analysis.Pipeline
	ix     *index.Sharded
	finder *core.Finder
}

func buildSystem(g *socialgraph.Graph, shards int, candidates []socialgraph.UserID) *system {
	ix, pipe := buildIndex(g, shards)
	return &system{g: g, pipe: pipe, ix: ix, finder: core.NewFinder(g, ix, pipe, candidates)}
}

// buildIndex cold-builds g (a bare graph: no Web, no candidate pool)
// through the product build path and returns the index with the
// pipeline that analyzed it.
func buildIndex(g *socialgraph.Graph, shards int) (*index.Sharded, *analysis.Pipeline) {
	sys, err := experiments.Build(experiments.BuildOptions{
		Dataset: &dataset.Dataset{Graph: g, Config: dataset.Config{IndexShards: shards}},
	})
	if err != nil {
		panic(err)
	}
	return sys.Finder.Index().(*index.Sharded), sys.Finder.Pipeline()
}

func reliableAPI(g *socialgraph.Graph) faults.API {
	return faults.Wrap(g, faults.Config{})
}

func noRetry() *resilience.Retryer {
	return &resilience.Retryer{Policy: resilience.RetryPolicy{MaxAttempts: 1}}
}

func TestFingerprint(t *testing.T) {
	base := socialgraph.Resource{
		Network: socialgraph.Twitter, Kind: socialgraph.KindTweet,
		Creator: 3, Container: socialgraph.NoContainer,
		Text: "hello world", URLs: []string{"http://a", "http://b"},
	}
	if Fingerprint(base) != Fingerprint(base) {
		t.Fatal("fingerprint not deterministic")
	}
	same := base
	same.ID = 99 // the ID must not participate
	if Fingerprint(same) != Fingerprint(base) {
		t.Error("fingerprint depends on ID")
	}
	mutations := map[string]socialgraph.Resource{
		"text":      {Network: base.Network, Kind: base.Kind, Creator: base.Creator, Container: base.Container, Text: "hello world!", URLs: base.URLs},
		"urls":      {Network: base.Network, Kind: base.Kind, Creator: base.Creator, Container: base.Container, Text: base.Text, URLs: []string{"http://a"}},
		"url-split": {Network: base.Network, Kind: base.Kind, Creator: base.Creator, Container: base.Container, Text: base.Text, URLs: []string{"http://ahttp://b"}},
		"creator":   {Network: base.Network, Kind: base.Kind, Creator: 4, Container: base.Container, Text: base.Text, URLs: base.URLs},
		"network":   {Network: socialgraph.Facebook, Kind: base.Kind, Creator: base.Creator, Container: base.Container, Text: base.Text, URLs: base.URLs},
		"kind":      {Network: base.Network, Kind: socialgraph.KindPost, Creator: base.Creator, Container: base.Container, Text: base.Text, URLs: base.URLs},
		"container": {Network: base.Network, Kind: base.Kind, Creator: base.Creator, Container: 0, Text: base.Text, URLs: base.URLs},
	}
	for name, m := range mutations {
		if Fingerprint(m) == Fingerprint(base) {
			t.Errorf("fingerprint insensitive to %s change", name)
		}
	}
}

// TestFetchCatalogComplete checks the discovery contract: one full
// fetch covers exactly the live resources of the remote graph, with
// records equal to the graph's own.
func TestFetchCatalogComplete(t *testing.T) {
	for _, g := range []*socialgraph.Graph{
		buildFixture().g,
		dataset.Generate(dataset.Config{Seed: 5, Scale: 0.05}).Graph,
	} {
		cat, err := FetchCatalog(reliableAPI(g), noRetry(), nil)
		if err != nil {
			t.Fatalf("FetchCatalog: %v", err)
		}
		for i := 0; i < g.NumResources(); i++ {
			id := socialgraph.ResourceID(i)
			r, inCat := cat[id]
			if g.ResourceDeleted(id) {
				if inCat {
					t.Errorf("deleted resource %d served in catalog", id)
				}
				continue
			}
			if !inCat {
				t.Errorf("live resource %d (%s) missing from catalog", id, g.Resource(id).Kind)
				continue
			}
			if !reflect.DeepEqual(r, g.Resource(id)) {
				t.Errorf("catalog record %d differs from graph record", id)
			}
		}
		if want := g.NumResources() - g.NumDeletedResources(); len(cat) != want {
			t.Errorf("catalog has %d resources, want %d", len(cat), want)
		}
	}
}

func TestFetchCatalogAbortsOnOutage(t *testing.T) {
	g := buildFixture().g
	api := faults.Wrap(g, faults.Config{Outages: []socialgraph.Network{socialgraph.Facebook}})
	if _, err := FetchCatalog(api, noRetry(), nil); err == nil {
		t.Fatal("FetchCatalog succeeded against a hard outage")
	}
}

func TestFetchCatalogRetriesTransients(t *testing.T) {
	g := buildFixture().g
	api := faults.Wrap(g, faults.Config{Seed: 11, TransientRate: 0.2})
	retryer := &resilience.Retryer{Policy: resilience.DefaultRetry, Clock: resilience.NewClock()}
	cat, err := FetchCatalog(api, retryer, nil)
	if err != nil {
		t.Fatalf("FetchCatalog with retries: %v", err)
	}
	if len(cat) != g.NumResources() {
		t.Errorf("catalog has %d resources, want %d", len(cat), g.NumResources())
	}
}

func TestDiffClassification(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	remote.g.SetResourceText(remote.docA, "freestyle swimming at dawn")
	remote.g.RemoveResource(remote.docB)
	added := remote.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, remote.uc, "copper wire projects")

	cat, err := FetchCatalog(reliableAPI(remote.g), noRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(installed.g, cat)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(d.Adds) != 1 || d.Adds[0].ID != added {
		t.Errorf("Adds = %v, want one add of %d", d.Adds, added)
	}
	if len(d.Updates) != 1 || d.Updates[0].ID != installed.docA {
		t.Errorf("Updates = %v, want one update of %d", d.Updates, installed.docA)
	}
	if len(d.Removes) != 1 || d.Removes[0] != installed.docB {
		t.Errorf("Removes = %v, want one remove of %d", d.Removes, installed.docB)
	}

	// An identical pair diffs empty.
	cat2, _ := FetchCatalog(reliableAPI(buildFixture().g), noRetry(), nil)
	if d, err := Diff(buildFixture().g, cat2); err != nil || !d.Empty() {
		t.Errorf("identical twins diff non-empty: %+v, %v", d, err)
	}
}

func TestDiffRejectsStructuralChange(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	cat, _ := FetchCatalog(reliableAPI(remote.g), noRetry(), nil)
	r := cat[remote.docA]
	r.Creator = remote.ub
	cat[remote.docA] = r
	if _, err := Diff(installed.g, cat); err == nil {
		t.Error("Diff accepted a creator change")
	}
}

func TestDiffRejectsMissingProfile(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	cat, _ := FetchCatalog(reliableAPI(remote.g), noRetry(), nil)
	profA, _ := remote.g.Profile(remote.ua, socialgraph.Twitter)
	delete(cat, profA)
	if _, err := Diff(installed.g, cat); err == nil {
		t.Error("Diff accepted a catalog missing a profile")
	}
}

func TestDiffRejectsResurrection(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	installed.g.RemoveResource(installed.docB)
	cat, _ := FetchCatalog(reliableAPI(remote.g), noRetry(), nil)
	if _, err := Diff(installed.g, cat); err == nil {
		t.Error("Diff accepted a remote record for a locally deleted resource")
	}
}

// assertGraphsEqual checks that installed has converged to exactly
// the remote state: equal tombstone sets and equal records for every
// live resource. The remote may have extra trailing slots only if all
// of them are tombstoned — resources created and deleted between
// rounds that no fetch ever observed.
func assertGraphsEqual(t *testing.T, installed, remote *socialgraph.Graph) {
	t.Helper()
	if installed.NumResources() > remote.NumResources() {
		t.Fatalf("installed has %d resource slots, remote only %d", installed.NumResources(), remote.NumResources())
	}
	for i := installed.NumResources(); i < remote.NumResources(); i++ {
		if !remote.ResourceDeleted(socialgraph.ResourceID(i)) {
			t.Fatalf("live remote resource %d beyond installed range %d", i, installed.NumResources())
		}
	}
	for i := 0; i < installed.NumResources(); i++ {
		id := socialgraph.ResourceID(i)
		if installed.ResourceDeleted(id) != remote.ResourceDeleted(id) {
			t.Fatalf("resource %d: installed deleted=%t, remote deleted=%t",
				id, installed.ResourceDeleted(id), remote.ResourceDeleted(id))
		}
		if remote.ResourceDeleted(id) {
			continue
		}
		if !reflect.DeepEqual(installed.Resource(id), remote.Resource(id)) {
			t.Fatalf("resource %d: installed record %+v differs from remote %+v",
				id, installed.Resource(id), remote.Resource(id))
		}
	}
}

// assertIndexMatchesRebuild checks the differential gate: the
// delta-absorbed index serializes byte-identically to a cold rebuild
// of the same corpus.
func assertIndexMatchesRebuild(t *testing.T, label string, live *index.Sharded, g *socialgraph.Graph, shards int) {
	t.Helper()
	rebuilt, _ := buildIndex(g, shards)
	var want, got bytes.Buffer
	if _, err := rebuilt.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := live.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("%s: delta-absorbed index differs from cold rebuild (%d vs %d bytes)",
			label, got.Len(), want.Len())
	}
}

// TestRunOnceDifferential is the system-level delta-vs-rebuild gate:
// churn the remote dataset, ingest the deltas, and require the
// installed graph, index and rankings to match a cold rebuild after
// every round.
func TestRunOnceDifferential(t *testing.T) {
	const shards = 3
	cfg := dataset.Config{Seed: 5, Scale: 0.05}
	remote := dataset.Generate(cfg)
	installed := dataset.Generate(cfg)
	sys := buildSystem(installed.Graph, shards, nil)
	ing := New(Config{
		API: reliableAPI(remote.Graph), Graph: installed.Graph,
		Index: sys.ix, Pipe: sys.pipe, Finders: []*core.Finder{sys.finder},
	})
	churn := NewChurn(remote.Graph, ChurnConfig{Seed: 7, Adds: 5, Updates: 12, Removes: 4})

	params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	for round := 1; round <= 4; round++ {
		churn.Round()
		rep, err := ing.RunOnce(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Adds == 0 && rep.Updates == 0 && rep.Removes == 0 {
			t.Fatalf("round %d applied an empty delta after churn", round)
		}
		assertGraphsEqual(t, installed.Graph, remote.Graph)
		assertIndexMatchesRebuild(t, "vs installed rebuild", sys.ix, installed.Graph, shards)
		assertIndexMatchesRebuild(t, "vs remote rebuild", sys.ix, remote.Graph, shards)

		cold := buildSystem(remote.Graph, shards, nil)
		for _, q := range installed.Queries[:6] {
			got := sys.finder.Find(q.Text, params)
			want := cold.finder.Find(q.Text, params)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, query %q: live ranking differs from cold rebuild\nlive: %v\ncold: %v",
					round, q.Text, got, want)
			}
		}
	}
	st := ing.Status()
	if st.Rounds != 4 || st.Aborts != 0 {
		t.Errorf("status = %+v, want 4 rounds, 0 aborts", st)
	}
	if st.Adds == 0 || st.Updates == 0 || st.Removes == 0 {
		t.Errorf("status did not accumulate delta counts: %+v", st)
	}
}

// TestRunOnceAddGapFillers covers remote IDs created and deleted
// between rounds: the installed graph must reserve the slots with
// tombstones so later IDs stay aligned.
func TestRunOnceAddGapFillers(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 2, nil)
	ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe})

	ghost := remote.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, remote.ua, "deleted before anyone saw it")
	kept := remote.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, remote.ua, "swimming relay results are in")
	remote.g.RemoveResource(ghost)

	if _, err := ing.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !installed.g.ResourceDeleted(ghost) {
		t.Error("gap slot not tombstoned")
	}
	if installed.g.Resource(kept).Text != "swimming relay results are in" {
		t.Errorf("post-gap add misaligned: %+v", installed.g.Resource(kept))
	}
	assertIndexMatchesRebuild(t, "after gap fill", sys.ix, installed.g, 2)
	assertIndexMatchesRebuild(t, "after gap fill vs remote", sys.ix, remote.g, 2)
}

// TestRunOnceProfileAdd covers a user gaining a profile on a network
// they had none on: the add must route through SetProfile so the
// installed profile map stays aligned.
func TestRunOnceProfileAdd(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 1, nil)
	ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe})

	remote.g.SetProfile(remote.uc, socialgraph.Twitter, "occasional swimmer and full time spectator")
	if _, err := ing.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	rid, ok := installed.g.Profile(installed.uc, socialgraph.Twitter)
	if !ok {
		t.Fatal("installed graph missing the added profile")
	}
	if got := installed.g.Resource(rid).Text; got != "occasional swimmer and full time spectator" {
		t.Errorf("profile text = %q", got)
	}
	assertGraphsEqual(t, installed.g, remote.g)
	assertIndexMatchesRebuild(t, "after profile add", sys.ix, installed.g, 1)
}

func TestRunOnceAbortChangesNothing(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	sys := buildSystem(installed.g, 2, nil)
	api := faults.Wrap(remote.g, faults.Config{Outages: []socialgraph.Network{socialgraph.LinkedIn}})
	ing := New(Config{API: api, Graph: installed.g, Index: sys.ix, Pipe: sys.pipe,
		Retry: resilience.RetryPolicy{MaxAttempts: 1}})

	remote.g.SetResourceText(remote.docA, "this edit must not be ingested")
	if _, err := ing.RunOnce(context.Background()); err == nil {
		t.Fatal("RunOnce succeeded through an outage")
	}
	if installed.g.Resource(installed.docA).Text == "this edit must not be ingested" {
		t.Error("aborted round leaked a mutation into the installed graph")
	}
	st := ing.Status()
	if st.Aborts != 1 || st.Rounds != 0 || st.LastError == "" {
		t.Errorf("status after abort = %+v", st)
	}
}

// TestScopedInvalidation is the cache-scoping gate: an update-only,
// df-preserving delta touching only pool A's documents must recompute
// A's affected entries byte-identically while pool B's entries — and
// A's entries for unrelated needs — keep serving hits.
func TestScopedInvalidation(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	ix, pipe := buildIndex(installed.g, 2)
	fa := core.NewFinder(installed.g, ix, pipe, []socialgraph.UserID{installed.ua})
	fb := core.NewFinder(installed.g, ix, pipe, []socialgraph.UserID{installed.ub})
	cache := rescache.New(rescache.Options{Capacity: 64})
	view := cache.Attach()
	fa.SetResultCache(view)
	fb.SetResultCache(view)

	ing := New(Config{
		API: reliableAPI(remote.g), Graph: installed.g, Index: ix, Pipe: pipe,
		Finders: []*core.Finder{fa, fb}, Cache: cache,
	})

	ctx := context.Background()
	params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	warm := func(f *core.Finder, need string) []core.ExpertScore {
		t.Helper()
		if _, status := f.FindCachedContext(ctx, need, params); status != core.CacheMiss {
			t.Fatalf("first %q query: status %q, want miss", need, status)
		}
		scores, status := f.FindCachedContext(ctx, need, params)
		if status != core.CacheHit {
			t.Fatalf("second %q query: status %q, want hit", need, status)
		}
		return scores
	}
	warm(fa, "swimming training")
	warm(fa, "guitar solo")
	preB := warm(fb, "swimming training")

	// Double one word of docA: its tf moves but every term keeps its
	// document frequency, so N and all query weights are unchanged.
	remote.g.SetResourceText(remote.docA,
		"freestyle swimming swimming training at the pool every morning")
	rep, err := ing.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullPurge {
		t.Fatalf("df-preserving update forced a full purge: %+v", rep)
	}
	if rep.CacheDropped == 0 {
		t.Fatalf("scoped invalidation dropped nothing: %+v", rep)
	}

	// Pool A, affected need: must miss and recompute exactly what a
	// cold post-delta system computes.
	gotA, status := fa.FindCachedContext(ctx, "swimming training", params)
	if status != core.CacheMiss {
		t.Errorf("pool A affected need: status %q, want miss", status)
	}
	coldG := buildFixture().g
	coldG.SetResourceText(coldG.Resource(installed.docA).ID,
		"freestyle swimming swimming training at the pool every morning")
	cold := buildSystem(coldG, 2, []socialgraph.UserID{installed.ua})
	if want := cold.finder.Find("swimming training", params); !reflect.DeepEqual(gotA, want) {
		t.Errorf("recomputed pool A ranking differs from cold rebuild\ngot:  %v\nwant: %v", gotA, want)
	}

	// Pool B cannot reach docA: its entry must still be resident and
	// still correct.
	gotB, status := fb.FindCachedContext(ctx, "swimming training", params)
	if status != core.CacheHit {
		t.Errorf("pool B untouched group: status %q, want hit", status)
	}
	if !reflect.DeepEqual(gotB, preB) {
		t.Errorf("pool B hit changed value across delta")
	}

	// Pool A, unrelated need: dims disjoint from the delta, must hit.
	if _, status := fa.FindCachedContext(ctx, "guitar solo", params); status != core.CacheHit {
		t.Errorf("pool A unrelated need: status %q, want hit", status)
	}
}

// TestFullPurgeOnCountChange: any add or remove moves N and with it
// every IRF weight, so the whole cache must go.
func TestFullPurgeOnCountChange(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	ix, pipe := buildIndex(installed.g, 2)
	fa := core.NewFinder(installed.g, ix, pipe, nil)
	cache := rescache.New(rescache.Options{Capacity: 64})
	fa.SetResultCache(cache.Attach())
	ing := New(Config{
		API: reliableAPI(remote.g), Graph: installed.g, Index: ix, Pipe: pipe,
		Finders: []*core.Finder{fa}, Cache: cache,
	})

	ctx := context.Background()
	params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	fa.FindCachedContext(ctx, "guitar solo", params)
	if cache.Len() == 0 {
		t.Fatal("warmup stored nothing")
	}
	remote.g.AddResource(socialgraph.Facebook, socialgraph.KindPost, remote.uc,
		"brand new post about cooking pasta at home")
	rep, err := ing.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullPurge {
		t.Errorf("add did not force a full purge: %+v", rep)
	}
	if cache.Len() != 0 {
		t.Errorf("cache still holds %d entries after a count change", cache.Len())
	}
	if _, status := fa.FindCachedContext(ctx, "guitar solo", params); status != core.CacheMiss {
		t.Errorf("post-purge query: status %q, want miss", status)
	}
}

func TestChurnDeterminismAndEligibility(t *testing.T) {
	a := buildFixture()
	b := buildFixture()
	ca := NewChurn(a.g, ChurnConfig{Seed: 3, Adds: 2, Updates: 3, Removes: 1})
	cb := NewChurn(b.g, ChurnConfig{Seed: 3, Adds: 2, Updates: 3, Removes: 1})
	for round := 0; round < 3; round++ {
		sa, sb := ca.Round(), cb.Round()
		if sa != sb {
			t.Fatalf("round %d: stats diverge: %+v vs %+v", round, sa, sb)
		}
		assertGraphsEqual(t, a.g, b.g)
	}
	for i := 0; i < a.g.NumResources(); i++ {
		id := socialgraph.ResourceID(i)
		if a.g.ResourceDeleted(id) {
			if k := a.g.Resource(id).Kind; k == socialgraph.KindProfile || k == socialgraph.KindContainerDesc {
				t.Errorf("churn removed a %s resource", k)
			}
		}
	}
}

func TestChurnUpdateOnlyPreservesCount(t *testing.T) {
	f := buildFixture()
	before := f.g.NumResources()
	c := NewChurn(f.g, ChurnConfig{Seed: 9, Updates: 5})
	st := c.Round()
	if st.Adds != 0 || st.Removes != 0 || st.Updates != 5 {
		t.Errorf("update-only round did %+v", st)
	}
	if f.g.NumResources() != before || f.g.NumDeletedResources() != 0 {
		t.Error("update-only churn changed the resource population")
	}
}
