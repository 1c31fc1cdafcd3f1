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
// FetchCatalog re-fetches every user stream and container feed, Diff
// classifies each resource by comparing its records field by field, and
// Ingester.RunOnce applies the delta atomically with respect to
// concurrent queries. A round that cannot fetch completely is
// aborted whole: diffing a partial catalog would misread every
// missing resource as a deletion.
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
	mFullPurges = telemetry.Default().Counter(
		"expertfind_ingest_cache_full_purges_total",
		"Ingest rounds whose delta changed collection statistics (N or a document frequency), forcing a whole-cache purge instead of a scoped one.")
	mCatalog = telemetry.Default().Gauge(
		"expertfind_ingest_catalog_resources",
		"Resources in the most recently fetched remote catalog.")
	mRoundSeconds = telemetry.Default().Histogram(
		"expertfind_ingest_round_duration_seconds",
		"Wall time of one full ingest round (fetch, diff, apply, invalidate).", nil)
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

// Catalog is one complete fetch of the remote corpus: every resource
// the platforms currently serve, keyed by its remote ID.
type Catalog map[socialgraph.ResourceID]socialgraph.Resource

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
			var view *faults.UserView
			err := retry.Do(func() error {
				v, err := api.FetchUser(u.ID, net)
				if err == nil {
					view = v
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("ingest: fetch user %d on %s: %w", u.ID, net, err)
			}
			if view.Profile != nil {
				add(*view.Profile)
			}
			for _, r := range view.Owned {
				add(r)
			}
			for _, r := range view.Created {
				add(r)
			}
			for _, r := range view.Annotated {
				add(r)
			}
			for _, c := range view.Containers {
				discover(c)
			}
		}
	}
	// The loop range grows as container feeds surface resources in
	// further containers.
	for i := 0; i < len(containers); i++ {
		c := containers[i]
		var view *faults.ContainerView
		err := retry.Do(func() error {
			v, err := api.FetchContainer(c, 0)
			if err == nil {
				view = v
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ingest: fetch container %d: %w", c, err)
		}
		add(view.Desc)
		for _, r := range view.Feed {
			add(r)
		}
	}
	return cat, nil
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
	var d Delta
	n := g.NumResources()
	for i := 0; i < n; i++ {
		id := socialgraph.ResourceID(i)
		remote, inCat := cat[id]
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
	for id, r := range cat {
		if int(id) >= n {
			d.Adds = append(d.Adds, r)
		}
	}
	sort.Slice(d.Adds, func(i, j int) bool { return d.Adds[i].ID < d.Adds[j].ID })
	sort.Slice(d.Updates, func(i, j int) bool { return d.Updates[i].ID < d.Updates[j].ID })
	sort.Slice(d.Removes, func(i, j int) bool { return d.Removes[i] < d.Removes[j] })
	return d, nil
}
