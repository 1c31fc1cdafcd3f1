package main

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expertfind/internal/socialgraph"
)

// buildLine creates candidates 0-1-2-3-4 connected in a line on
// Facebook, plus an isolated candidate 5.
func buildLine(t testing.TB) (*socialgraph.Graph, []socialgraph.UserID) {
	t.Helper()
	g := socialgraph.New()
	var users []socialgraph.UserID
	for i := 0; i < 6; i++ {
		users = append(users, g.AddUser("u", true))
	}
	for i := 0; i < 4; i++ {
		g.Befriend(users[i], users[i+1], socialgraph.Facebook)
	}
	return g, users
}

func TestDistance(t *testing.T) {
	g, u := buildLine(t)
	f := NewFormer(g, nil)
	if d := f.Distance(u[0], u[0]); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if d := f.Distance(u[0], u[4]); d != 4 {
		t.Errorf("line distance = %d, want 4", d)
	}
	if d := f.Distance(u[0], u[5]); d != Unreachable {
		t.Errorf("isolated distance = %d, want Unreachable", d)
	}
	if d := f.Distance(u[4], u[0]); d != 4 {
		t.Errorf("distance not symmetric: %d", d)
	}
}

func TestRarestFirstPrefersCloseTeams(t *testing.T) {
	g, u := buildLine(t)
	f := NewFormer(g, nil)
	// Skill a: only user 2 (rarest). Skill b: users 0 and 3.
	// RarestFirst anchors on 2 and must choose 3 (distance 1) over 0
	// (distance 2).
	team, err := f.RarestFirst(Support{
		"a": {u[2]},
		"b": {u[0], u[3]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if team.BySkill["b"] != u[3] {
		t.Errorf("skill b covered by %d, want %d", team.BySkill["b"], u[3])
	}
	if team.Diameter != 1 {
		t.Errorf("diameter = %d, want 1", team.Diameter)
	}
}

func TestRarestFirstAnchorSelection(t *testing.T) {
	g, u := buildLine(t)
	f := NewFormer(g, nil)
	// Rarest skill has two supporters (0 and 4); skill b only user 1.
	// Anchoring on 0 gives diameter 1; anchoring on 4 gives 3.
	team, err := f.RarestFirst(Support{
		"a": {u[0], u[4]},
		"b": {u[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if team.BySkill["a"] != u[0] || team.Diameter != 1 {
		t.Errorf("team = %+v, want anchor 0 with diameter 1", team)
	}
}

func TestOneMemberCoveringEverything(t *testing.T) {
	g, u := buildLine(t)
	f := NewFormer(g, nil)
	team, err := f.RarestFirst(Support{
		"a": {u[2]},
		"b": {u[2]},
		"c": {u[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(team.Members) != 1 || team.Diameter != 0 || team.SumDistance != 0 {
		t.Errorf("team = %+v, want singleton", team)
	}
}

func TestUnreachableTeamDetected(t *testing.T) {
	g, u := buildLine(t)
	f := NewFormer(g, nil)
	team, err := f.RarestFirst(Support{
		"a": {u[0]},
		"b": {u[5]}, // isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Connected(team) {
		t.Error("disconnected team reported as connected")
	}
}

func TestSupportValidation(t *testing.T) {
	g, _ := buildLine(t)
	f := NewFormer(g, nil)
	if _, err := f.RarestFirst(Support{}); err == nil {
		t.Error("empty support accepted")
	}
	if _, err := f.RarestFirst(Support{"a": nil}); err == nil {
		t.Error("unsupported skill accepted")
	}
}

func TestNetworkRestriction(t *testing.T) {
	g := socialgraph.New()
	a := g.AddUser("a", true)
	b := g.AddUser("b", true)
	g.Befriend(a, b, socialgraph.Twitter)
	// Only the Facebook network: the Twitter friendship is invisible.
	f := NewFormer(g, []socialgraph.Network{socialgraph.Facebook})
	if d := f.Distance(a, b); d != Unreachable {
		t.Errorf("distance = %d, want Unreachable on facebook-only view", d)
	}
	f = NewFormer(g, []socialgraph.Network{socialgraph.Twitter})
	if d := f.Distance(a, b); d != 1 {
		t.Errorf("distance = %d, want 1 on twitter view", d)
	}
}

func TestOnlyMutualEdgesCount(t *testing.T) {
	g := socialgraph.New()
	a := g.AddUser("a", true)
	b := g.AddUser("b", true)
	g.Follows(a, b, socialgraph.Twitter) // unidirectional
	f := NewFormer(g, nil)
	if d := f.Distance(a, b); d != Unreachable {
		t.Errorf("unidirectional follow created a communication edge (d=%d)", d)
	}
}

// randomFormer builds a random candidate graph with random skills.
func randomFormer(r *rand.Rand) (*Former, Support) {
	g := socialgraph.New()
	n := 4 + r.Intn(10)
	users := make([]socialgraph.UserID, n)
	for i := range users {
		users[i] = g.AddUser("u", true)
	}
	for i := 0; i < n*2; i++ {
		a, b := users[r.Intn(n)], users[r.Intn(n)]
		if a != b {
			g.Befriend(a, b, socialgraph.Facebook)
		}
	}
	support := Support{}
	for si := 0; si < 1+r.Intn(4); si++ {
		sk := Skill(string(rune('a' + si)))
		for len(support[sk]) == 0 {
			for _, u := range users {
				if r.Intn(3) == 0 {
					support[sk] = append(support[sk], u)
				}
			}
		}
	}
	return NewFormer(g, nil), support
}

// Property: RarestFirst always returns full skill coverage from the
// declared supporters, and diameter <= sum distance bound holds.
func TestFormationProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		former, support := randomFormer(r)
		team, err := former.RarestFirst(support)
		if err != nil {
			return false
		}
		for sk, supporters := range support {
			member, ok := team.BySkill[sk]
			if !ok {
				return false
			}
			found := false
			for _, u := range supporters {
				if u == member {
					found = true
				}
			}
			if !found {
				return false // member does not actually have the skill
			}
		}
		if len(team.Members) > len(support) {
			return false // more members than skills
		}
		if team.Diameter > team.SumDistance && len(team.Members) > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RarestFirst respects its 2-approximation guarantee
// relative to any assignment containing its anchor — in particular
// the naive first-supporter assignment (whose rarest-skill member is
// one of the anchors RarestFirst tries): through the anchor and the
// triangle inequality, diameter(RarestFirst) ≤ 2·diameter(naive).
func TestRarestFirstTwoApproxVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		former, support := randomFormer(r)
		team, err := former.RarestFirst(support)
		if err != nil {
			return false
		}
		naive := map[Skill]socialgraph.UserID{}
		for sk, us := range support {
			naive[sk] = us[0]
		}
		naiveTeam := former.finalize(naive)
		return team.Diameter <= 2*naiveTeam.Diameter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
