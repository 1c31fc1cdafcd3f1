package dataset

import (
	"fmt"

	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
	"expertfind/internal/webcontent"
)

// CandidateTruth is the serialized ground truth of one candidate.
type CandidateTruth struct {
	User           socialgraph.UserID `json:"user"`
	Levels         [7]int             `json:"levels"` // per kb.Domains order
	Expressiveness float64            `json:"expressiveness"`
	Activity       float64            `json:"activity"`
	FanLevels      [7]float64         `json:"fan_levels"`
}

// Snapshot is the serialization-friendly form of a complete dataset:
// the social graph, the synthetic Web, the queries and the ground
// truth. It is the base record of every corpus file internal/corpusio
// reads and writes.
type Snapshot struct {
	Config     Config                `json:"config"`
	Graph      *socialgraph.Snapshot `json:"graph"`
	Pages      []webcontent.Page     `json:"pages"`
	Queries    []Query               `json:"queries"`
	Candidates []CandidateTruth      `json:"candidates"`
}

// Snapshot exports the dataset.
func (d *Dataset) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:  d.Config,
		Graph:   d.Graph.Snapshot(),
		Pages:   d.Web.Pages(),
		Queries: d.Queries,
	}
	for _, u := range d.Candidates {
		s.Candidates = append(s.Candidates, CandidateTruth{
			User:           u,
			Levels:         d.levels[u],
			Expressiveness: d.expressiveness[u],
			Activity:       d.activity[u],
			FanLevels:      d.fanLevels[u],
		})
	}
	return s
}

// FromSnapshot rebuilds a dataset from its snapshot, validating the
// graph and ground truth.
func FromSnapshot(s *Snapshot) (*Dataset, error) {
	if s.Graph == nil {
		return nil, fmt.Errorf("dataset: snapshot has no graph")
	}
	g, err := socialgraph.FromSnapshot(s.Graph)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Config:         s.Config,
		Graph:          g,
		Web:            webcontent.NewWeb(),
		KB:             kb.Builtin(),
		Queries:        s.Queries,
		levels:         make(map[socialgraph.UserID][7]int),
		expressiveness: make(map[socialgraph.UserID]float64),
		activity:       make(map[socialgraph.UserID]float64),
		fanLevels:      make(map[socialgraph.UserID][7]float64),
	}
	for _, p := range s.Pages {
		d.Web.AddPage(p.URL, p.Title, p.Main)
	}
	for _, c := range s.Candidates {
		if int(c.User) < 0 || int(c.User) >= g.NumUsers() {
			return nil, fmt.Errorf("dataset: ground truth references unknown user %d", c.User)
		}
		if !g.User(c.User).Candidate {
			return nil, fmt.Errorf("dataset: ground truth for non-candidate user %d", c.User)
		}
		for _, l := range c.Levels {
			if l < 1 || l > 7 {
				return nil, fmt.Errorf("dataset: user %d has Likert level %d outside 1..7", c.User, l)
			}
		}
		d.Candidates = append(d.Candidates, c.User)
		d.levels[c.User] = c.Levels
		d.expressiveness[c.User] = c.Expressiveness
		d.activity[c.User] = c.Activity
		d.fanLevels[c.User] = c.FanLevels
	}
	if len(d.Candidates) == 0 {
		return nil, fmt.Errorf("dataset: snapshot has no candidates")
	}
	for _, q := range d.Queries {
		if _, err := domainIndexErr(q.Domain); err != nil {
			return nil, fmt.Errorf("dataset: query %d: %w", q.ID, err)
		}
	}
	d.computeDomainMeans()
	return d, nil
}

func domainIndexErr(dom kb.Domain) (int, error) {
	for i, dd := range kb.Domains {
		if dd == dom {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown domain %q", dom)
}
