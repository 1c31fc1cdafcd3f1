package ingest

import (
	"context"
	"reflect"
	"testing"

	"expertfind/internal/socialgraph"
)

// fuzzWords is the vocabulary fuzz ops draw text from. It mixes
// clearly English phrases with short fragments, so generated
// resources land on both sides of the analysis language filter and
// every ok-flag combination of the update legs gets exercised.
var fuzzWords = []string{
	"swimming training at the pool",
	"guitar solo recording session",
	"copper wire",
	"the football match was great to watch",
	"php code review notes for the team",
	"milan",
	"a long wave of atoms in the machine",
	"il calcio è bellissimo stasera davvero",
	"train",
	"we played the new game all night long",
}

func fuzzText(x, y byte) string {
	s := fuzzWords[int(x)%len(fuzzWords)]
	if y%3 == 0 {
		s += " " + fuzzWords[int(y)%len(fuzzWords)]
	}
	return s
}

// applyFuzzOps interprets ops as remote-platform churn, three bytes
// per operation: adds (standalone and contained), in-place text
// updates, and removes of non-profile, non-description resources.
func applyFuzzOps(g *socialgraph.Graph, ops []byte) {
	for len(ops) >= 3 {
		op, x, y := ops[0], ops[1], ops[2]
		ops = ops[3:]
		switch op % 4 {
		case 0:
			creator := socialgraph.UserID(int(x) % g.NumUsers())
			net := socialgraph.Networks[int(y)%len(socialgraph.Networks)]
			g.AddResource(net, kindFor(net), creator, fuzzText(x, y))
		case 1:
			if g.NumContainers() == 0 {
				continue
			}
			c := socialgraph.ContainerID(int(x) % g.NumContainers())
			creator := socialgraph.UserID(int(y) % g.NumUsers())
			g.AddContainedResource(socialgraph.KindGroupPost, c, creator, fuzzText(y, x))
		case 2:
			live := liveIDs(g, false)
			if len(live) == 0 {
				continue
			}
			id := live[int(x)%len(live)]
			r := g.Resource(id)
			g.SetResourceText(id, fuzzText(y, x), r.URLs...)
		case 3:
			removable := liveIDs(g, true)
			if len(removable) == 0 {
				continue
			}
			g.RemoveResource(removable[int(x)%len(removable)])
		}
	}
}

func liveIDs(g *socialgraph.Graph, removableOnly bool) []socialgraph.ResourceID {
	var out []socialgraph.ResourceID
	for i := 0; i < g.NumResources(); i++ {
		id := socialgraph.ResourceID(i)
		if g.ResourceDeleted(id) {
			continue
		}
		if removableOnly {
			switch g.Resource(id).Kind {
			case socialgraph.KindProfile, socialgraph.KindContainerDesc:
				continue
			}
		}
		out = append(out, id)
	}
	return out
}

// FuzzCorpusDiff is the diff round-trip property: for any churn
// sequence applied to the remote replica, fetching and ingesting the
// delta must make the installed graph exactly equal to the remote one
// (records, tombstones, profile map effects), and the delta-absorbed
// index must serialize byte-identically to cold rebuilds of both —
// so deletes leave no orphaned postings or entities behind.
func FuzzCorpusDiff(f *testing.F) {
	f.Add(int64(1), []byte("\x00\x01\x02\x02\x03\x04\x03\x00\x00"))
	f.Add(int64(7), []byte("\x01\x02\x01\x02\x05\x07\x03\x02\x00\x00\x09\x01\x02\x00\x03"))
	f.Add(int64(42), []byte("\x03\x00\x00\x03\x01\x00\x00\x04\x02\x02\x01\x08"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		const shards = 3
		remote, installed := buildFixture(), buildFixture()
		// A seeded churn round first, so the op stream mutates a
		// corpus that already diverged in interesting ways.
		NewChurn(remote.g, ChurnConfig{Seed: seed, Adds: 2, Updates: 2, Removes: 1}).Round()

		ix, pipe := buildIndex(installed.g, shards)
		ing := New(Config{API: reliableAPI(remote.g), Graph: installed.g, Index: ix, Pipe: pipe})

		half := len(ops) / 2
		for _, chunk := range [][]byte{ops[:half], ops[half:]} {
			applyFuzzOps(remote.g, chunk)
			if _, err := ing.RunOnce(context.Background()); err != nil {
				t.Fatalf("RunOnce: %v", err)
			}
			assertGraphsEqual(t, installed.g, remote.g)
			assertIndexMatchesRebuild(t, "vs installed rebuild", ix, installed.g, shards)
			assertIndexMatchesRebuild(t, "vs remote rebuild", ix, remote.g, shards)
		}

		// A final no-op round must diff empty: ingest converged.
		rep, err := ing.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Adds+rep.Updates+rep.Removes != 0 {
			t.Fatalf("converged corpus produced a non-empty delta: %+v", rep)
		}
		// Profile maps must have converged too (profiles are updated in
		// place, never added by the ops above, but SetProfile routing is
		// exercised by the churn round).
		for _, u := range remote.g.Users() {
			for _, net := range socialgraph.Networks {
				rr, rok := remote.g.Profile(u.ID, net)
				lr, lok := installed.g.Profile(u.ID, net)
				if rok != lok || (rok && !reflect.DeepEqual(rr, lr)) {
					t.Fatalf("profile map diverged for user %d on %s", u.ID, net)
				}
			}
		}
	})
}
