// Package ingest keeps an installed corpus live: it re-visits the
// remote platforms through the faults API, diffs what they serve
// against the installed social graph, and applies the resulting
// add/update/delete delta to the graph and the index without
// a rebuild — invalidating only the result-cache entries the delta
// can actually change.
//
// The paper's system crawls once and serves a frozen corpus (§2.3);
// real deployments re-crawl continuously, because walls move: posts
// are written, edited and deleted between crawls. The correctness
// spine of this package is the delta-vs-rebuild differential: after
// any sequence of ingest rounds, the delta-absorbed index must rank
// bit-identically to — and serialize byte-identically with — a cold
// rebuild of the same corpus state.
//
// The installed graph is assumed to be a same-ID replica of the
// remote one: both evolved from a common crawl by positional appends,
// so a remote resource and its installed copy share one ResourceID.
// Each round asks the networks' change feeds what changed since the
// last completed round and fetches only those resources' home owners;
// DiffScoped classifies the changed resources by comparing their
// records field by field. FetchCatalog re-fetches every user stream
// and container feed for Diff instead when no cursor can answer: on
// the first round, when a feed has expired, and on every
// fullEvery-th round. Ingester.RunOnce applies the delta atomically
// with respect to concurrent queries. A round that cannot fetch
// completely is aborted whole and keeps its cursors: diffing a partial
// catalog would misread every missing resource as a deletion.
package ingest

import (
	"fmt"
	"slices"
	"sort"

	"expertfind/internal/faults"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Ingest metrics: round cadence and delta composition. The rescache
// scoped-invalidation counters live in internal/rescache.
var (
	mRounds = telemetry.Default().Counter(
		"expertfind_ingest_rounds_total",
		"Completed ingest rounds (empty deltas included).")
	mAborts = telemetry.Default().Counter(
		"expertfind_ingest_aborts_total",
		"Ingest rounds abandoned whole on an incomplete fetch or an inconsistent catalog.")
	mAdds = telemetry.Default().Counter(
		"expertfind_ingest_adds_total",
		"Resources added to the installed corpus by ingest deltas.")
	mUpdates = telemetry.Default().Counter(
		"expertfind_ingest_updates_total",
		"Resources updated in place by ingest deltas.")
	mRemoves = telemetry.Default().Counter(
		"expertfind_ingest_removes_total",
		"Resources tombstoned by ingest deltas.")
	mAnalysed = telemetry.Default().Counter(
		"expertfind_ingest_analysed_texts_total",
		"Resource texts analysed by ingest rounds: the adds' and the updates' new texts, plus the indexed updates' old texts when a result cache needs their posting diff. A removal is by id and analyses nothing.")
	mFullPurges = telemetry.Default().Counter(
		"expertfind_ingest_cache_full_purges_total",
		"Ingest rounds whose delta changed collection statistics (N or a document frequency), forcing a whole-cache purge instead of a scoped one.")
	mCatalog = telemetry.Default().Gauge(
		"expertfind_ingest_catalog_resources",
		"Records fetched in the most recent ingest round: the whole remote catalog on a full round, the changed resources' owners' records on a scoped one.")
	mRoundSeconds = telemetry.Default().Histogram(
		"expertfind_ingest_round_duration_seconds",
		"Wall time of one ingest round (feeds, fetch, diff, apply, invalidate).", nil)
)

// sameRecord reports whether an ingest delta has nothing to change
// between two records of one resource: network, kind, creator,
// container, text and URLs are equal (nil and empty URL lists alike).
// The ID is deliberately excluded — the catalog already keys by it.
func sameRecord(a, b socialgraph.Resource) bool {
	return a.Network == b.Network && a.Kind == b.Kind &&
		a.Creator == b.Creator && a.Container == b.Container &&
		a.Text == b.Text && slices.Equal(a.URLs, b.URLs)
}

// Catalog is the remote records one round fetched, keyed by remote
// ID: every resource the platforms serve on a full round, and what
// the changed resources' home owners serve on a scoped one.
type Catalog map[socialgraph.ResourceID]socialgraph.Resource

// retried runs one API call under retry and returns its result.
func retried[T any](retry *resilience.Retryer, call func() (T, error)) (T, error) {
	var out T
	err := retry.Do(func() error {
		v, err := call()
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// fetchUser is one retried FetchUser call; add receives every record
// the response carries.
func fetchUser(api faults.API, retry *resilience.Retryer, u socialgraph.UserID, net socialgraph.Network, add func(socialgraph.Resource)) (*faults.UserView, error) {
	view, err := retried(retry, func() (*faults.UserView, error) { return api.FetchUser(u, net) })
	if err != nil {
		return nil, fmt.Errorf("ingest: fetch user %d on %s: %w", u, net, err)
	}
	if view.Profile != nil {
		add(*view.Profile)
	}
	for _, stream := range [][]socialgraph.Resource{view.Owned, view.Created, view.Annotated} {
		for _, r := range stream {
			add(r)
		}
	}
	return view, nil
}

// fetchContainer is one retried FetchContainer call for the whole
// feed; add receives every record the response carries.
func fetchContainer(api faults.API, retry *resilience.Retryer, c socialgraph.ContainerID, add func(socialgraph.Resource)) error {
	view, err := retried(retry, func() (*faults.ContainerView, error) { return api.FetchContainer(c, 0) })
	if err != nil {
		return fmt.Errorf("ingest: fetch container %d: %w", c, err)
	}
	add(view.Desc)
	for _, r := range view.Feed {
		add(r)
	}
	return nil
}

// FetchCatalog walks every user on every network through api,
// retrying each call under retry, and assembles the full remote
// resource catalog: profiles, owned/created/annotated streams,
// container descriptions and container feeds. Containers are
// discovered three ways — the known list (the caller's installed
// containers, so a group that lost all members and content keeps its
// description fetchable), user memberships, and the Container field
// of every fetched resource — and fetched once each.
//
// Any call that still fails after retries aborts the whole fetch with
// an error: a partial catalog must never be diffed, because every
// resource the failed calls would have returned would be misread as
// deleted.
func FetchCatalog(api faults.API, retry *resilience.Retryer, known []socialgraph.ContainerID) (Catalog, error) {
	seen := make(map[socialgraph.ContainerID]bool)
	var containers []socialgraph.ContainerID
	discover := func(c socialgraph.ContainerID) {
		if c != socialgraph.NoContainer && !seen[c] {
			seen[c] = true
			containers = append(containers, c)
		}
	}
	for _, c := range known {
		discover(c)
	}
	cat := make(Catalog)
	add := func(r socialgraph.Resource) {
		cat[r.ID] = r
		discover(r.Container)
	}
	for _, u := range api.Users() {
		for _, net := range socialgraph.Networks {
			view, err := fetchUser(api, retry, u.ID, net, add)
			if err != nil {
				return nil, err
			}
			for _, c := range view.Containers {
				discover(c)
			}
		}
	}
	// The loop range grows as container feeds surface resources in
	// further containers.
	for i := 0; i < len(containers); i++ {
		if err := fetchContainer(api, retry, containers[i], add); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// fetchChanged makes the fetches the change views name — each changed
// resource's home owner, once — and returns what they serve with the
// changed ids: the input DiffScoped needs. It aborts on a failed call
// exactly as FetchCatalog does.
func fetchChanged(api faults.API, retry *resilience.Retryer, views []*faults.ChangeView) (Catalog, []socialgraph.ResourceID, error) {
	cat := make(Catalog)
	add := func(r socialgraph.Resource) { cat[r.ID] = r }
	var changed []socialgraph.ResourceID
	for _, v := range views {
		changed = append(changed, v.IDs...)
		for _, u := range v.Users {
			if _, err := fetchUser(api, retry, u, v.Network, add); err != nil {
				return nil, nil, err
			}
		}
		for _, c := range v.Containers {
			if err := fetchContainer(api, retry, c, add); err != nil {
				return nil, nil, err
			}
		}
	}
	return cat, changed, nil
}

// Delta is the classified difference between the installed graph and
// a remote catalog. Adds and Updates carry the full remote records;
// Removes carry the IDs of installed resources the remote no longer
// serves. All three are sorted by ID, so equal (graph, catalog) pairs
// always produce the identical delta.
type Delta struct {
	Adds    []socialgraph.Resource
	Updates []socialgraph.Resource
	Removes []socialgraph.ResourceID
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool {
	return len(d.Adds) == 0 && len(d.Updates) == 0 && len(d.Removes) == 0
}

// Diff classifies a remote catalog against the installed graph:
//
//   - catalog resources beyond the installed ID range are Adds;
//   - installed live resources absent from the catalog are Removes
//     (the remote deleted them — its API stops serving tombstones);
//   - installed live resources whose catalog record differs in any
//     field but the ID are Updates.
//
// Structural fields (network, kind, creator, container) are immutable
// on real platforms; an update that changes one means the remote is
// not the same-ID replica the ingest contract assumes, and Diff
// reports it as an error rather than guessing. Profiles and container
// descriptions missing from the catalog are likewise errors — the
// platforms never delete them, so their absence marks an incomplete
// catalog that must not drive deletions.
func Diff(g *socialgraph.Graph, cat Catalog) (Delta, error) {
	n := g.NumResources()
	ids := make([]socialgraph.ResourceID, n)
	for i := range ids {
		ids[i] = socialgraph.ResourceID(i)
	}
	for id := range cat {
		if int(id) >= n {
			ids = append(ids, id)
		}
	}
	return DiffScoped(g, cat, ids)
}

// DiffScoped is Diff's rule applied to the slots ids (no repeats)
// alone, against a catalog that holds every live remote record among
// them; Diff is DiffScoped over every installed slot and every
// catalog ID beyond them. When ids name every resource whose remote
// record changed since the installed graph last equalled the remote,
// every other slot is unchanged, so the delta equals Diff's against a
// full catalog.
func DiffScoped(g *socialgraph.Graph, cat Catalog, ids []socialgraph.ResourceID) (Delta, error) {
	var d Delta
	n := g.NumResources()
	for _, id := range ids {
		remote, inCat := cat[id]
		if int(id) >= n {
			if inCat {
				d.Adds = append(d.Adds, remote)
			}
			continue
		}
		if g.ResourceDeleted(id) {
			if inCat {
				return Delta{}, fmt.Errorf("ingest: remote resurrected deleted resource %d", id)
			}
			continue
		}
		local := g.Resource(id)
		if !inCat {
			if local.Kind == socialgraph.KindProfile || local.Kind == socialgraph.KindContainerDesc {
				return Delta{}, fmt.Errorf("ingest: %s resource %d missing from catalog (incomplete fetch?)", local.Kind, id)
			}
			d.Removes = append(d.Removes, id)
			continue
		}
		if sameRecord(remote, local) {
			continue
		}
		if remote.Network != local.Network || remote.Kind != local.Kind ||
			remote.Creator != local.Creator || remote.Container != local.Container {
			return Delta{}, fmt.Errorf("ingest: resource %d changed structure (%s/%s by %d → %s/%s by %d)",
				id, local.Network, local.Kind, local.Creator, remote.Network, remote.Kind, remote.Creator)
		}
		d.Updates = append(d.Updates, remote)
	}
	sort.Slice(d.Adds, func(i, j int) bool { return d.Adds[i].ID < d.Adds[j].ID })
	sort.Slice(d.Updates, func(i, j int) bool { return d.Updates[i].ID < d.Updates[j].ID })
	sort.Slice(d.Removes, func(i, j int) bool { return d.Removes[i] < d.Removes[j] })
	return d, nil
}
