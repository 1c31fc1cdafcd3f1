// Crowdrouting: the crowd-searching scenario that motivates the paper
// (§1). A stream of questions has to be routed to small crowds of
// socially connected experts. Social contacts answer out of goodwill,
// not for payment, so the routing layer bounds every expert's open
// questions and rests them between assignments; questions nobody can
// take fall back to a generic crowdsourcing platform — the paper's
// dividing line between social and anonymous crowds.
package main

import (
	"fmt"
	"log"

	"expertfind"
)

func main() {
	sys := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.2})

	// Adapt the expert finder to the router's Ranker interface.
	rank := RankerFunc(func(need string) ([]RankedExpert, error) {
		experts, err := sys.Find(need)
		if err != nil {
			return nil, err
		}
		out := make([]RankedExpert, len(experts))
		for i, e := range experts {
			out[i] = RankedExpert{Name: e.Name, Score: e.Score}
		}
		return out, nil
	})
	rt := NewRouter(rank, RouterConfig{CrowdSize: 3, MaxOpen: 2, Cooldown: 1})

	questions := []string{
		"why is copper a good conductor?",
		"can you list some restaurants in milan?",
		"which php function returns the length of a string?",
		"can you list some famous songs of michael jackson?",
		"which quentin tarantino movie should i watch first?",
		"which gaming console should i buy, playstation or xbox?",
		"can you list some famous european football teams?",
		"can someone explain the theory of relativity in simple words?",
	}

	fmt.Println("routing plan:")
	var open []Assignment
	for i, q := range questions {
		a, err := rt.Ask(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n  Q%d: %s\n", a.ID, q)
		switch {
		case a.Fallback:
			fmt.Println("      no available experts — falling back to a generic crowd platform")
		case a.Partial:
			fmt.Printf("      ask (partial crowd): %v\n", a.Crowd)
		default:
			fmt.Printf("      ask: %v\n", a.Crowd)
		}
		open = append(open, a)

		// Halfway through, the first crowds answer, freeing budget.
		if i == len(questions)/2 {
			for _, done := range open[:2] {
				for _, name := range done.Crowd {
					if err := rt.Complete(done.ID, name); err != nil {
						log.Fatal(err)
					}
				}
			}
			fmt.Println("\n  -- first answers arrived, budget freed --")
		}
	}

	fmt.Printf("\nopen questions: %d\n", rt.OpenQuestions())
	fmt.Println("answer leaderboard:")
	for _, e := range rt.Leaderboard() {
		fmt.Printf("  %-16s %d answered\n", e.Name, int(e.Score))
	}
}
