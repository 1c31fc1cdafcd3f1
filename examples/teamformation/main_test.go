package main

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"expertfind"
)

var (
	sysOnce sync.Once
	sys     *expertfind.System
)

// system returns the example's corpus (seed 1, scale 0.2), shared
// across tests.
func system(t testing.TB) *expertfind.System {
	t.Helper()
	sysOnce.Do(func() { sys = expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.2}) })
	return sys
}

// TestExampleGolden pins the team and the jury main prints for its
// fixed needs and seed. The values were recorded from the library's
// FormTeam and SelectJury before they moved into this example, so a
// diff here is a behaviour change, not a refactor.
func TestExampleGolden(t *testing.T) {
	s := system(t)
	needs := []string{
		"which php function returns the length of a string?",
		"which gaming console should i buy, playstation or xbox?",
		"can you list some famous songs of michael jackson?",
	}
	team, err := FormTeam(s, needs, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := NamedTeam{
		Members: []string{"candidate-09", "candidate-14"},
		ByNeed: map[string]string{
			needs[0]: "candidate-09",
			needs[1]: "candidate-14",
			needs[2]: "candidate-09",
		},
		Diameter:    1,
		SumDistance: 1,
		Connected:   true,
	}
	if !reflect.DeepEqual(team, want) {
		t.Errorf("team = %+v\nwant   %+v", team, want)
	}

	jury, err := SelectJury(s, "is copper a better electrical conductor than aluminium?", 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"candidate-14", "candidate-16", "candidate-29"}; !reflect.DeepEqual(jury.Members, want) {
		t.Errorf("jury = %v, want %v", jury.Members, want)
	}
	if got, want := math.Float64bits(jury.ErrorRate), uint64(0x3fa7edd6ea0b4cac); got != want {
		t.Errorf("jury error rate = %v (bits %#x), want bits %#x", jury.ErrorRate, got, want)
	}
}

func TestFormTeam(t *testing.T) {
	s := system(t)
	needs := []string{
		"which php function returns the length of a string?",
		"can you list some famous songs of michael jackson?",
	}
	team, err := FormTeam(s, needs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(team.Members) == 0 || len(team.Members) > len(needs) {
		t.Errorf("members = %v", team.Members)
	}
	for _, need := range needs {
		if team.ByNeed[need] == "" {
			t.Errorf("need %q uncovered", need)
		}
	}
	if _, err := FormTeam(s, nil, 3); err == nil {
		t.Error("empty needs accepted")
	}
	if _, err := FormTeam(s, []string{"zzz qqq xxx"}, 3); err == nil {
		t.Error("unanswerable need accepted")
	}
}

func TestSelectJury(t *testing.T) {
	s := system(t)
	j, err := SelectJury(s, "why is copper a good conductor?", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Members) == 0 || len(j.Members)%2 != 1 {
		t.Errorf("jury = %v", j.Members)
	}
	if j.ErrorRate < 0 || j.ErrorRate >= 0.5 {
		t.Errorf("error rate = %v, want < 0.5 (the jury leads with an expert)", j.ErrorRate)
	}
	if _, err := SelectJury(s, "zzz qqq xxx", 5); err == nil {
		t.Error("unanswerable need accepted")
	}
}

// TestCandidateIDs checks the handle-to-user map the team and the jury
// are built on: one entry per candidate, each naming a candidate user
// of the system's graph with that handle.
func TestCandidateIDs(t *testing.T) {
	s := system(t)
	ids := candidateIDs(s)
	if n := len(s.CandidateInfos()); len(ids) != n || n == 0 {
		t.Fatalf("%d handles mapped, want %d", len(ids), n)
	}
	g := s.CoreFinder().Graph()
	for name, id := range ids {
		if u := g.User(id); u.Name != name || !u.Candidate {
			t.Errorf("%s maps to user %d = %+v", name, id, u)
		}
	}
}
