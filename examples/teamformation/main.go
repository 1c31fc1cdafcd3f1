// Teamformation: two problems from the paper's related work, built on
// top of its expert finder rather than inside the library.
//
// First, the Expert Team Formation problem (Lappas et al., KDD 2009):
// a project needs several different competences at once, and the team
// members must be able to collaborate — i.e. be close in the social
// network. Second, the Jury Selection Problem (Cao et al., VLDB
// 2012): a yes/no decision is made by majority vote, and the jury
// should minimize the probability of a wrong decision.
package main

import (
	"fmt"
	"log"

	"expertfind"
	"expertfind/internal/socialgraph"
)

func main() {
	sys := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.2})

	// --- Team formation -------------------------------------------
	// A product launch needs an engineer, a gamer and a musician.
	needs := []string{
		"which php function returns the length of a string?",
		"which gaming console should i buy, playstation or xbox?",
		"can you list some famous songs of michael jackson?",
	}
	team, err := FormTeam(sys, needs, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("project team (RarestFirst, diameter cost):")
	for _, need := range needs {
		fmt.Printf("  %-60.60s -> %s\n", need, team.ByNeed[need])
	}
	fmt.Printf("  members: %v\n", team.Members)
	fmt.Printf("  communication diameter %d, sum distance %d, connected: %v\n",
		team.Diameter, team.SumDistance, team.Connected)

	// --- Jury selection -------------------------------------------
	question := "is copper a better electrical conductor than aluminium?"
	jury, err := SelectJury(sys, question, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecision task: %s\n", question)
	fmt.Printf("selected jury (majority vote): %v\n", jury.Members)
	fmt.Printf("estimated decision error rate: %.4f\n", jury.ErrorRate)
}

// candidateIDs maps candidate handles back to the social-graph users
// that team formation and jury selection reason about.
func candidateIDs(sys *expertfind.System) map[string]socialgraph.UserID {
	infos := sys.CandidateInfos()
	ids := make(map[string]socialgraph.UserID, len(infos))
	for _, c := range infos {
		ids[c.Name] = socialgraph.UserID(c.ID)
	}
	return ids
}
