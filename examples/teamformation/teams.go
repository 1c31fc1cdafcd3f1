package main

// Expert Team Formation, the problem the paper's related work places
// next to expert finding (§4, Lappas, Liu & Terzi, "Finding a team of
// experts in social networks", KDD 2009): given a task that requires a
// set of skills and a pool of experts connected by a social network,
// find a team that covers every skill while keeping the communication
// cost among members low. RarestFirst minimizes the diameter cost —
// the largest shortest-path distance between any two team members —
// within a factor of 2.
//
// The communication network is derived from the social graph's mutual
// relationships (friendships / connections), which is exactly the
// paper's reading of a real-world bond (§2.2): you can actually work
// with a friend, while a followed celebrity will not answer.

import (
	"fmt"
	"sort"

	"expertfind"
	"expertfind/internal/socialgraph"
)

// NamedTeam is a Team read back as candidate handles: one member per
// expertise need.
type NamedTeam struct {
	// Members are the distinct team members.
	Members []string
	// ByNeed maps each input need to the member covering it.
	ByNeed map[string]string
	// Diameter is the largest communication distance (hops over
	// mutual relationships) between any two members.
	Diameter int
	// SumDistance is the total pairwise communication distance.
	SumDistance int
	// Connected reports whether all members can reach each other
	// through mutual relationships.
	Connected bool
}

// FormTeam assembles a team able to address every need in needs: the
// top supportK ranked experts of each need are its candidate
// supporters, and the team minimizes the communication diameter with
// the RarestFirst algorithm. Options apply to the per-need expert
// retrieval.
func FormTeam(sys *expertfind.System, needs []string, supportK int, opts ...expertfind.FindOption) (NamedTeam, error) {
	if len(needs) == 0 {
		return NamedTeam{}, fmt.Errorf("teamformation: no needs given")
	}
	if supportK <= 0 {
		supportK = 5
	}
	ids := candidateIDs(sys)
	support := Support{}
	for _, need := range needs {
		experts, err := sys.Find(need, opts...)
		if err != nil {
			return NamedTeam{}, err
		}
		if len(experts) == 0 {
			return NamedTeam{}, fmt.Errorf("teamformation: no experts found for need %q", need)
		}
		for _, e := range experts[:min(supportK, len(experts))] {
			support[Skill(need)] = append(support[Skill(need)], ids[e.Name])
		}
	}

	g := sys.CoreFinder().Graph()
	former := NewFormer(g, nil)
	team, err := former.RarestFirst(support)
	if err != nil {
		return NamedTeam{}, err
	}
	out := NamedTeam{
		ByNeed:      make(map[string]string, len(team.BySkill)),
		Diameter:    team.Diameter,
		SumDistance: team.SumDistance,
		Connected:   former.Connected(team),
	}
	for _, u := range team.Members {
		out.Members = append(out.Members, g.User(u).Name)
	}
	for sk, u := range team.BySkill {
		out.ByNeed[string(sk)] = g.User(u).Name
	}
	return out, nil
}

// Skill names one required competence (in FormTeam, the text of an
// expertise need, but any label works).
type Skill string

// Team is a formed team: one member per required skill (members can
// repeat across skills and are deduplicated in Members).
type Team struct {
	// Members lists the distinct team members, sorted.
	Members []socialgraph.UserID
	// BySkill maps every required skill to the member covering it.
	BySkill map[Skill]socialgraph.UserID
	// Diameter is the largest pairwise communication distance within
	// the team.
	Diameter int
	// SumDistance is the sum of pairwise communication distances.
	SumDistance int
}

// Unreachable is the distance reported between members with no
// connecting path; teams containing such pairs are avoided whenever
// the skill supports allow it.
const Unreachable = 1 << 20

// Former forms teams over a communication network.
type Former struct {
	adj map[socialgraph.UserID][]socialgraph.UserID
	// distCache memoizes single-source BFS results.
	distCache map[socialgraph.UserID]map[socialgraph.UserID]int
}

// NewFormer builds the communication network from the mutual
// relationships of the graph on the given networks (nil = all).
// Only candidate users are nodes: externals (followed accounts,
// group members) are not teammates.
func NewFormer(g *socialgraph.Graph, networks []socialgraph.Network) *Former {
	if networks == nil {
		networks = socialgraph.Networks
	}
	f := &Former{
		adj:       make(map[socialgraph.UserID][]socialgraph.UserID),
		distCache: make(map[socialgraph.UserID]map[socialgraph.UserID]int),
	}
	candidates := g.Candidates()
	for i, a := range candidates {
		for _, b := range candidates[i+1:] {
			for _, net := range networks {
				if g.IsFriend(a, b, net) {
					f.adj[a] = append(f.adj[a], b)
					f.adj[b] = append(f.adj[b], a)
					break
				}
			}
		}
	}
	return f
}

// Distance returns the communication distance (shortest path over
// mutual relationships) between two users, or Unreachable.
func (f *Former) Distance(a, b socialgraph.UserID) int {
	if a == b {
		return 0
	}
	d, ok := f.bfs(a)[b]
	if !ok {
		return Unreachable
	}
	return d
}

func (f *Former) bfs(src socialgraph.UserID) map[socialgraph.UserID]int {
	if d, ok := f.distCache[src]; ok {
		return d
	}
	dist := map[socialgraph.UserID]int{src: 0}
	queue := []socialgraph.UserID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range f.adj[u] {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	f.distCache[src] = dist
	return dist
}

// Support lists, per skill, the users able to contribute it.
type Support map[Skill][]socialgraph.UserID

// validate checks that every skill has at least one supporter.
func (s Support) validate() error {
	if len(s) == 0 {
		return fmt.Errorf("teams: no skills required")
	}
	for skill, users := range s {
		if len(users) == 0 {
			return fmt.Errorf("teams: skill %q has no supporting experts", skill)
		}
	}
	return nil
}

// skillsSorted returns the skills in deterministic order.
func (s Support) skillsSorted() []Skill {
	out := make([]Skill, 0, len(s))
	for sk := range s {
		out = append(out, sk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RarestFirst forms a team minimizing the diameter cost, following
// the KDD 2009 RarestFirst algorithm: anchor on the supporters of the
// rarest skill, attach to each anchor the closest supporter of every
// other skill, and keep the anchor whose team has the smallest
// diameter.
func (f *Former) RarestFirst(support Support) (Team, error) {
	if err := support.validate(); err != nil {
		return Team{}, err
	}
	skills := support.skillsSorted()

	rarest := skills[0]
	for _, sk := range skills {
		if len(support[sk]) < len(support[rarest]) {
			rarest = sk
		}
	}

	best := Team{Diameter: Unreachable + 1}
	for _, anchor := range support[rarest] {
		bySkill := map[Skill]socialgraph.UserID{rarest: anchor}
		for _, sk := range skills {
			if sk == rarest {
				continue
			}
			chosen, chosenDist := socialgraph.UserID(-1), Unreachable+1
			for _, u := range support[sk] {
				if d := f.Distance(anchor, u); d < chosenDist {
					chosen, chosenDist = u, d
				}
			}
			bySkill[sk] = chosen
		}
		team := f.finalize(bySkill)
		if team.Diameter < best.Diameter ||
			(team.Diameter == best.Diameter && team.SumDistance < best.SumDistance) {
			best = team
		}
	}
	return best, nil
}

// finalize computes team costs from a skill assignment.
func (f *Former) finalize(bySkill map[Skill]socialgraph.UserID) Team {
	seen := map[socialgraph.UserID]bool{}
	var members []socialgraph.UserID
	for _, u := range bySkill {
		if !seen[u] {
			seen[u] = true
			members = append(members, u)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	diameter, sum := 0, 0
	for i, a := range members {
		for _, b := range members[i+1:] {
			d := f.Distance(a, b)
			if d > diameter {
				diameter = d
			}
			sum += d
		}
	}
	return Team{Members: members, BySkill: bySkill, Diameter: diameter, SumDistance: sum}
}

// Connected reports whether every pair of team members can reach each
// other in the communication network.
func (f *Former) Connected(t Team) bool {
	return t.Diameter < Unreachable
}
