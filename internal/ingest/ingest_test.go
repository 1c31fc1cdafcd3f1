package ingest

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	"expertfind/internal/telemetry"
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
	ix     *index.Store
	finder *core.Finder
}

func buildSystem(g *socialgraph.Graph, shards int, candidates []socialgraph.UserID) *system {
	ix, pipe := buildIndex(g, shards)
	return &system{g: g, pipe: pipe, ix: ix, finder: core.NewFinder(g, ix, pipe, candidates)}
}

// buildIndex cold-builds g (a bare graph: no Web, no candidate pool)
// through the product build path and returns the index with the
// pipeline that analyzed it.
func buildIndex(g *socialgraph.Graph, shards int) (*index.Store, *analysis.Pipeline) {
	sys, err := experiments.Build(experiments.BuildOptions{
		Dataset: &dataset.Dataset{Graph: g}, Store: index.StoreOptions{Workers: shards},
	})
	if err != nil {
		panic(err)
	}
	return sys.Finder.Index().(*index.Store), sys.Finder.Pipeline()
}

func reliableAPI(g *socialgraph.Graph) faults.API {
	return faults.Wrap(g, faults.Config{})
}

func noRetry() *resilience.Retryer {
	return &resilience.Retryer{Policy: resilience.RetryPolicy{MaxAttempts: 1}}
}

// TestRecordEquality is the table of the equality Diff classifies by:
// every field but the ID counts, each on its own.
func TestRecordEquality(t *testing.T) {
	base := socialgraph.Resource{
		ID: 7, Network: socialgraph.Twitter, Kind: socialgraph.KindTweet,
		Creator: 3, Container: socialgraph.NoContainer,
		Text: "hello world", URLs: []string{"http://a", "http://b"},
	}
	with := func(edit func(*socialgraph.Resource)) socialgraph.Resource {
		r := base
		r.URLs = slices.Clone(base.URLs)
		edit(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		a, b socialgraph.Resource
		same bool
	}{
		{"identical", base, with(func(*socialgraph.Resource) {}), true},
		{"id ignored", base, with(func(r *socialgraph.Resource) { r.ID = 99 }), true},
		{"network", base, with(func(r *socialgraph.Resource) { r.Network = socialgraph.Facebook }), false},
		{"kind", base, with(func(r *socialgraph.Resource) { r.Kind = socialgraph.KindPost }), false},
		{"creator", base, with(func(r *socialgraph.Resource) { r.Creator = 4 }), false},
		{"container", base, with(func(r *socialgraph.Resource) { r.Container = 0 }), false},
		{"text", base, with(func(r *socialgraph.Resource) { r.Text = "hello world!" }), false},
		{"one url fewer", base, with(func(r *socialgraph.Resource) { r.URLs = r.URLs[:1] }), false},
		{"one url changed", base, with(func(r *socialgraph.Resource) { r.URLs[1] = "http://c" }), false},
		{"urls reordered", base, with(func(r *socialgraph.Resource) { r.URLs[0], r.URLs[1] = r.URLs[1], r.URLs[0] }), false},
		{"nil urls equal empty", with(func(r *socialgraph.Resource) { r.URLs = nil }),
			with(func(r *socialgraph.Resource) { r.URLs = []string{} }), true},
		{"url boundary", with(func(r *socialgraph.Resource) { r.URLs = []string{"a", "bc"} }),
			with(func(r *socialgraph.Resource) { r.URLs = []string{"ab", "c"} }), false},
	} {
		if got := sameRecord(tc.a, tc.b); got != tc.same {
			t.Errorf("%s: sameRecord = %t, want %t", tc.name, got, tc.same)
		}
		if got := sameRecord(tc.b, tc.a); got != tc.same {
			t.Errorf("%s (swapped): sameRecord = %t, want %t", tc.name, got, tc.same)
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
		live := 0
		for i := 0; i < g.NumResources(); i++ {
			id := socialgraph.ResourceID(i)
			r, inCat := cat[id]
			if g.ResourceDeleted(id) {
				if inCat {
					t.Errorf("deleted resource %d served in catalog", id)
				}
				continue
			}
			live++
			if !inCat {
				t.Errorf("live resource %d (%s) missing from catalog", id, g.Resource(id).Kind)
				continue
			}
			if !reflect.DeepEqual(r, g.Resource(id)) {
				t.Errorf("catalog record %d differs from graph record", id)
			}
		}
		if len(cat) != live {
			t.Errorf("catalog has %d resources, want %d", len(cat), live)
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
func assertIndexMatchesRebuild(t *testing.T, label string, live *index.Store, g *socialgraph.Graph, shards int) {
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
			got, _ := sys.finder.Find(context.Background(), q.Text, params)
			want, _ := cold.finder.Find(context.Background(), q.Text, params)
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

// TestRunOnceAbortChangesNothing: a round that fails — a failed change
// feed, an incomplete fetch, or an invalid add sitting after valid
// removes and updates in the same delta — changes nothing. The
// installed graph, the index's serialized bytes and the finder's
// traversal cache are as before.
func TestRunOnceAbortChangesNothing(t *testing.T) {
	ctx := context.Background()
	// validEdits gives the round a remove, an update and a valid add
	// ahead of whatever the case makes invalid.
	validEdits := func(remote *fixture) {
		remote.g.SetResourceText(remote.docA, "this edit must not be ingested")
		remote.g.RemoveResource(remote.docB)
		remote.g.AddResource(socialgraph.Facebook, socialgraph.KindPost, remote.uc, "nor this guitar lesson")
	}
	for _, tc := range []struct {
		name, wantErr string
		// round edits the remote and runs one failing round against
		// installed, after rounds completed ones, returning its error.
		round  func(remote *fixture, ing *Ingester) error
		rounds int
	}{
		{"outage", "change feed", func(remote *fixture, ing *Ingester) error {
			validEdits(remote)
			ing.cfg.API = faults.Wrap(remote.g, faults.Config{Outages: []socialgraph.Network{socialgraph.LinkedIn}})
			_, err := ing.RunOnce(ctx)
			return err
		}, 0},
		{"scoped outage", "fetch user", func(remote *fixture, ing *Ingester) error {
			if rep, err := ing.RunOnce(ctx); err != nil || !rep.Full {
				return fmt.Errorf("first round = %+v, %v; want a full round", rep, err)
			}
			validEdits(remote)
			ing.cfg.API = usersDown{ing.cfg.API}
			_, err := ing.RunOnce(ctx)
			return err
		}, 1},
		{"unknown creator", "unknown creator", func(remote *fixture, ing *Ingester) error {
			validEdits(remote)
			stranger := remote.g.AddUser("stranger", false)
			remote.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, stranger, "swimming from nowhere")
			_, err := ing.RunOnce(ctx)
			return err
		}, 0},
		{"container description", "is a container description", func(remote *fixture, ing *Ingester) error {
			validEdits(remote)
			c := remote.g.AddContainer(socialgraph.Facebook, socialgraph.ContainerGroup, remote.ua, "swim club", "a swimming club")
			remote.g.RelatesTo(remote.ua, c)
			_, err := ing.RunOnce(ctx)
			return err
		}, 0},
		{"out of order", "out of order", func(remote *fixture, ing *Ingester) error {
			// Diff never emits this, so the round's write step runs on a
			// diffed delta with the bad add appended, as RunOnce would.
			validEdits(remote)
			cat, err := FetchCatalog(reliableAPI(remote.g), noRetry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Diff(ing.cfg.Graph, cat)
			if err != nil || len(d.Adds) != 1 || len(d.Updates) != 1 || len(d.Removes) != 1 {
				t.Fatalf("diff = %+v, %v; want one add, update and remove", d, err)
			}
			stale := d.Adds[0]
			stale.ID--
			d.Adds = append(d.Adds, stale)
			plan, err := ing.planApply(d)
			if err == nil {
				ing.apply(d, plan)
			}
			return err
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remote, installed := buildFixture(), buildFixture()
			sys := buildSystem(installed.g, 2, nil)
			ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: sys.ix, Pipe: sys.pipe,
				Finders: []*core.Finder{sys.finder}, Retry: resilience.RetryPolicy{MaxAttempts: 1}})
			params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
			want, _ := sys.finder.Find(context.Background(), "guitar recording", params)
			var before bytes.Buffer
			if _, err := sys.ix.WriteTo(&before); err != nil {
				t.Fatal(err)
			}

			if err := tc.round(remote, ing); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("round error = %v, want one containing %q", err, tc.wantErr)
			}

			pristine := buildFixture().g
			if installed.g.NumResources() != pristine.NumResources() || installed.g.NumUsers() != pristine.NumUsers() {
				t.Fatalf("aborted round grew the graph: %d resources, %d users", installed.g.NumResources(), installed.g.NumUsers())
			}
			assertGraphsEqual(t, installed.g, pristine)
			var after bytes.Buffer
			if _, err := sys.ix.WriteTo(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("aborted round changed the index")
			}
			misses := telemetry.Default().Counter("expertfind_traversal_cache_misses_total", "")
			m0 := misses.Value()
			if got, _ := sys.finder.Find(context.Background(), "guitar recording", params); !reflect.DeepEqual(got, want) {
				t.Fatalf("ranking moved across an aborted round:\n%v\n%v", got, want)
			}
			if misses.Value() != m0 {
				t.Fatal("aborted round dropped the traversal cache")
			}
			if tc.name != "out of order" {
				if st := ing.Status(); st.Aborts != 1 || st.Rounds != tc.rounds || st.LastError == "" {
					t.Errorf("status after abort = %+v", st)
				}
			}
		})
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
		if _, status := f.Find(ctx, need, params); status != core.CacheMiss {
			t.Fatalf("first %q query: status %q, want miss", need, status)
		}
		scores, status := f.Find(ctx, need, params)
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
	if rep.CacheDropped != 1 {
		t.Fatalf("scoped invalidation dropped %d entries, want pool A's one affected entry: %+v", rep.CacheDropped, rep)
	}

	// Pool A, affected need: must miss and recompute exactly what a
	// cold post-delta system computes.
	gotA, status := fa.Find(ctx, "swimming training", params)
	if status != core.CacheMiss {
		t.Errorf("pool A affected need: status %q, want miss", status)
	}
	coldG := buildFixture().g
	coldG.SetResourceText(coldG.Resource(installed.docA).ID,
		"freestyle swimming swimming training at the pool every morning")
	cold := buildSystem(coldG, 2, []socialgraph.UserID{installed.ua})
	if want, _ := cold.finder.Find(context.Background(), "swimming training", params); !reflect.DeepEqual(gotA, want) {
		t.Errorf("recomputed pool A ranking differs from cold rebuild\ngot:  %v\nwant: %v", gotA, want)
	}

	// Pool B cannot reach docA: its entry must still be resident and
	// still correct.
	gotB, status := fb.Find(ctx, "swimming training", params)
	if status != core.CacheHit {
		t.Errorf("pool B untouched group: status %q, want hit", status)
	}
	if !reflect.DeepEqual(gotB, preB) {
		t.Errorf("pool B hit changed value across delta")
	}

	// Pool A, unrelated need: dims disjoint from the delta, must hit.
	if _, status := fa.Find(ctx, "guitar solo", params); status != core.CacheHit {
		t.Errorf("pool A unrelated need: status %q, want hit", status)
	}
}

// TestRoundsPatchTraversals: a round changes records, never edges, so
// it builds no reachability table and neither does the find after it.
// The round brings the finder's cached tables current itself, the
// widest one scoped invalidation reads included: only the first round
// that reads it builds it.
func TestRoundsPatchTraversals(t *testing.T) {
	remote, installed := buildFixture(), buildFixture()
	ix, pipe := buildIndex(installed.g, 2)
	f := core.NewFinder(installed.g, ix, pipe, nil)
	cache := rescache.New(rescache.Options{Capacity: 64})
	f.SetResultCache(cache.Attach())
	ing := New(Config{
		API: reliableAPI(remote.g), Graph: installed.g, Index: ix, Pipe: pipe,
		Finders: []*core.Finder{f}, Cache: cache,
	})
	walks := telemetry.Default().Counter("expertfind_graph_traversals_total", "")
	misses := telemetry.Default().Counter("expertfind_traversal_cache_misses_total", "")

	ctx := context.Background()
	params := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	need := "swimming training"
	f.Find(ctx, need, params)
	rounds := []func(g *fixture){
		// Update-only rounds run the touched check on the widest table.
		func(g *fixture) {
			g.g.SetResourceText(g.docA, "freestyle swimming swimming training at the pool every morning")
		},
		func(g *fixture) {
			g.g.SetResourceText(g.docA, "freestyle swimming training training at the pool every morning")
		},
		// Adds and removes purge the cache and patch every table.
		func(g *fixture) {
			g.g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, g.ua, "swimming training in open water")
			g.g.AddContainedResource(socialgraph.KindGroupPost, g.cont, g.uc, "swimming after the session")
			g.g.RemoveResource(g.docB)
		},
		func(g *fixture) {
			g.g.SetProfile(g.ub, socialgraph.Twitter, "swimming coach")
			g.g.SetResourceText(g.docA, "freestyle swimming training at the pool every morning")
		},
	}
	for i, edit := range rounds {
		edit(remote)
		w0, m0 := walks.Value(), misses.Value()
		rep, err := ing.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := f.Find(ctx, need, params)
		if i > 0 && (walks.Value() != w0 || misses.Value() != m0) {
			t.Fatalf("round %d (%+v) and the find after it walked %v candidates and missed %v tables",
				i, rep, walks.Value()-w0, misses.Value()-m0)
		}
		if i == 0 {
			warmTables(f)
		}
		assertTablesCurrent(t, fmt.Sprintf("round %d", i), f)
		cold := buildSystem(remote.g, 2, nil)
		if want, _ := cold.finder.Find(context.Background(), need, params); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: ranking differs from a cold rebuild\ngot:  %v\nwant: %v", i, got, want)
		}
	}
}

// checkedTraversals are the traversals whose tables the ingest tests
// warm on a finder before its rounds and check after each.
var checkedTraversals = []socialgraph.TraversalOptions{
	{MaxDistance: 1},
	{MaxDistance: 2},
	{MaxDistance: 2, Networks: []socialgraph.Network{socialgraph.Twitter, socialgraph.Facebook}},
	widestTraversal,
}

func warmTables(f *core.Finder) {
	for _, opts := range checkedTraversals {
		f.ReachTable(opts)
	}
}

// assertTablesCurrent checks that the round left each of the finder's
// tables current, so reading it builds and patches nothing, and equal
// to a fresh Reachability at every id from -1 to one past the last.
func assertTablesCurrent(t testing.TB, label string, f *core.Finder) {
	t.Helper()
	walks := telemetry.Default().Counter("expertfind_graph_traversals_total", "")
	patches := telemetry.Default().Counter("expertfind_graph_reach_patches_total", "")
	g := f.Graph()
	for _, opts := range checkedTraversals {
		w0, p0 := walks.Value(), patches.Value()
		got := f.ReachTable(opts)
		if walks.Value() != w0 || patches.Value() != p0 {
			t.Fatalf("%s %+v: the round left the finder's table stale", label, opts)
		}
		want := g.Reachability(f.Candidates(), opts)
		for r := socialgraph.ResourceID(-1); int(r) <= g.NumResources(); r++ {
			if !reflect.DeepEqual(got.Of(r), want.Of(r)) {
				t.Fatalf("%s %+v: Of(%d) = %v, a fresh build says %v", label, opts, r, got.Of(r), want.Of(r))
			}
		}
		if got.Len() != want.Len() || got.Span() != want.Span() {
			t.Fatalf("%s %+v: Len, Span = %d, %d; a fresh build has %d, %d",
				label, opts, got.Len(), got.Span(), want.Len(), want.Span())
		}
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
	fa.Find(ctx, "guitar solo", params)
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
	if _, status := fa.Find(ctx, "guitar solo", params); status != core.CacheMiss {
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
	if f.g.NumResources() != before {
		t.Error("update-only churn changed the resource population")
	}
	for i := 0; i < before; i++ {
		if f.g.ResourceDeleted(socialgraph.ResourceID(i)) {
			t.Errorf("update-only churn deleted resource %d", i)
		}
	}
}

// BenchmarkIngestRound times one churn round's RunOnce against a
// sealed store with a directory and no cache — seg_churn's write path
// at a small scale — and reports the texts it analysed: the updates'
// new texts and the adds, never a removed or replaced one.
func BenchmarkIngestRound(b *testing.B) {
	cfg := dataset.Config{Seed: 5, Scale: 0.05}
	remote, installed := dataset.Generate(cfg).Graph, dataset.Generate(cfg).Graph
	sys, err := experiments.Build(experiments.BuildOptions{
		Dataset: &dataset.Dataset{Graph: installed}, SegmentDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ix := sys.Finder.Index().(*index.Store)
	defer ix.Close()
	if err := ix.Seal(); err != nil {
		b.Fatal(err)
	}
	if st := ix.Status(); len(st.Segments) == 0 || st.MemtableDocs != 0 {
		b.Fatalf("the store is not sealed: %+v", st)
	}
	ing := New(Config{API: reliableAPI(remote), Graph: installed, Index: ix, Pipe: sys.Finder.Pipeline(),
		Finders: []*core.Finder{sys.Finder}})
	churn := NewChurn(remote, ChurnConfig{Seed: 11, Adds: 30, Updates: 30, Removes: 15})
	ctx := context.Background()
	// Untimed: the remote has not churned yet, and both graphs are one
	// configuration's copies, so this round resumes the feed, scoped and empty.
	if _, err := ing.RunOnce(ctx); err != nil {
		b.Fatal(err)
	}
	before := mAnalysed.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn.Round()
		b.StartTimer()
		if _, err := ing.RunOnce(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((mAnalysed.Value()-before)/float64(b.N), "texts/op")
}
