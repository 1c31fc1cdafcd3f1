package dataset

import (
	"fmt"
	"math/rand"

	"expertfind/internal/kb"
	"expertfind/internal/platform"
	"expertfind/internal/socialgraph"
)

// StreamConfig parameterizes streaming corpus generation: the base
// dataset configuration plus the chunking of the bulk volume.
type StreamConfig struct {
	Config
	// ChunkDocs is the number of bulk resources emitted per chunk
	// (default 25000). Generation memory is bounded by the base corpus
	// plus one chunk, regardless of Scale.
	ChunkDocs int
}

// Per scale unit beyond the base corpus, the bulk audience adds
// bulkUsersPerScale users authoring bulkDocsPerScale resources — at
// Scale 100 that is one million users around the 40 candidates,
// matching the public-crowd-to-candidate ratio of a real deployment.
const (
	bulkUsersPerScale = 10000
	bulkDocsPerScale  = 24000
)

// StreamUser is one bulk audience user of a chunk.
type StreamUser struct {
	Name string `json:"name"`
}

// StreamResource is one bulk resource of a chunk. It is closed over
// chunk-local state: the creator is an index into the chunk's Users,
// and the container (when ≥ 0) is a container id of the base corpus,
// so replaying chunks in order rebuilds the exact same graph.
type StreamResource struct {
	Network   socialgraph.Network      `json:"network"`
	Kind      socialgraph.ResourceKind `json:"kind"`
	User      int                      `json:"user"`
	Container socialgraph.ContainerID  `json:"container"` // NoContainer for wall posts
	Text      string                   `json:"text"`
	URLs      []string                 `json:"urls,omitempty"`
}

// StreamLike is a candidate annotation on a chunk resource (by local
// index), the distance-1 edge that makes a slice of the bulk volume
// expertise evidence rather than background noise.
type StreamLike struct {
	Candidate socialgraph.UserID `json:"candidate"`
	Resource  int                `json:"resource"`
}

// StreamChunk is one bulk extension of a base dataset: new audience
// users, the resources they author (mostly into candidate-related
// containers, so they are reachable at distance 2), and sparse
// candidate likes. Chunks are self-contained and must be applied in
// order; ApplyChunk fills FirstUser/FirstResource with the ids the
// graph assigned, which are identical for generation and replay.
type StreamChunk struct {
	Index     int              `json:"index"`
	Users     []StreamUser     `json:"users"`
	Resources []StreamResource `json:"resources"`
	Likes     []StreamLike     `json:"likes,omitempty"`

	FirstUser     socialgraph.UserID     `json:"-"`
	FirstResource socialgraph.ResourceID `json:"-"`
}

func (c StreamConfig) withStreamDefaults() StreamConfig {
	c.Config = c.Config.withDefaults()
	if c.ChunkDocs <= 0 {
		c.ChunkDocs = 25000
	}
	return c
}

// BulkChunks returns how many chunks GenerateStream will emit for the
// configuration (zero at Scale ≤ 1, where the base corpus is the
// whole dataset).
func (c StreamConfig) BulkChunks() int {
	c = c.withStreamDefaults()
	if c.Scale <= 1 {
		return 0
	}
	total := int(bulkDocsPerScale * c.Scale)
	return (total + c.ChunkDocs - 1) / c.ChunkDocs
}

// GenerateStream builds the dataset for cfg incrementally: the base
// corpus (ground truth, candidates, containers, paper-shaped
// resources) is generated at Scale 1 and handed to onBase, then the
// bulk volume — bulkDocsPerScale × Scale resources authored by
// bulkUsersPerScale × Scale fresh audience users — is emitted as
// seeded chunks, each applied to the dataset's graph and handed to
// onChunk before the next one is built. Callers persist and index a
// chunk inside onChunk (and may blank its texts afterwards, see
// BlankChunkTexts) so peak memory stays bounded by base + one chunk
// of text regardless of Scale.
//
// The returned dataset carries the full graph. Generation is
// deterministic: equal configs produce identical datasets, and equal
// to replaying the emitted chunks over the emitted base.
func GenerateStream(cfg StreamConfig, onBase func(*Dataset) error, onChunk func(*Dataset, *StreamChunk) error) (*Dataset, error) {
	cfg = cfg.withStreamDefaults()
	baseCfg := cfg.Config
	if baseCfg.Scale > 1 {
		baseCfg.Scale = 1
	}
	d := generate(baseCfg) // no identity: chunks follow, and callers blank their texts
	d.Config.Scale = cfg.Scale
	if onBase != nil {
		if err := onBase(d); err != nil {
			return nil, err
		}
	}
	chunks := cfg.BulkChunks()
	if chunks == 0 {
		return d, nil
	}
	pool := candidateContainers(d)
	totalDocs := int(bulkDocsPerScale * cfg.Scale)
	totalUsers := int(bulkUsersPerScale * cfg.Scale)
	for ci := 0; ci < chunks; ci++ {
		nDocs := cfg.ChunkDocs
		if rem := totalDocs - ci*cfg.ChunkDocs; rem < nDocs {
			nDocs = rem
		}
		nUsers := totalUsers / chunks
		if ci == chunks-1 {
			nUsers = totalUsers - nUsers*(chunks-1)
		}
		c := buildChunk(cfg, d, ci, pool, nUsers, nDocs)
		d.ApplyChunk(c)
		if onChunk != nil {
			if err := onChunk(d, c); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// candidateContainers collects the containers any candidate relates
// to — the groups and pages whose contained posts are reachable at
// distance 2, where bulk audience content becomes evidence.
func candidateContainers(d *Dataset) []socialgraph.ContainerID {
	seen := map[socialgraph.ContainerID]bool{}
	var pool []socialgraph.ContainerID
	for _, u := range d.Candidates {
		for _, c := range d.Graph.RelatedContainers(u) {
			if !seen[c] {
				seen[c] = true
				pool = append(pool, c)
			}
		}
	}
	return pool
}

// buildChunk composes one seeded bulk chunk without mutating the
// dataset. Chunk randomness is independent per index, so a chunk's
// content depends only on (Seed, Index) and the base corpus shape.
func buildChunk(cfg StreamConfig, d *Dataset, ci int, pool []socialgraph.ContainerID, nUsers, nDocs int) *StreamChunk {
	r := rand.New(rand.NewSource(cfg.Seed + 1_000_000 + int64(ci)*104729))
	text := platform.NewTextGen(d.KB, d.Web, r)
	// Bulk posts never register new Web pages: the synthetic Web stays
	// the base corpus's, keeping stream memory independent of Scale.
	text.URLProb = 0
	c := &StreamChunk{Index: ci}
	for i := 0; i < nUsers; i++ {
		c.Users = append(c.Users, StreamUser{Name: fmt.Sprintf("bulk-%06d-%05d", ci, i)})
	}
	nets := []socialgraph.Network{socialgraph.Facebook, socialgraph.Twitter, socialgraph.LinkedIn}
	for i := 0; i < nDocs; i++ {
		user := r.Intn(nUsers)
		dom := kb.Domains[r.Intn(len(kb.Domains))]
		var body string
		if r.Float64() < 0.35 {
			body = text.Chatter()
		} else {
			body, _ = text.TopicalPost(dom)
		}
		res := StreamResource{User: user, Text: body}
		if len(pool) > 0 && r.Float64() < 0.6 {
			// Audience post inside a candidate-related group or page.
			res.Container = pool[r.Intn(len(pool))]
			res.Network = d.Graph.Container(res.Container).Network
			res.Kind = socialgraph.KindGroupPost
		} else {
			// Standalone wall post: background volume, unreachable from
			// the candidate pool unless a candidate likes it below.
			res.Container = socialgraph.NoContainer
			res.Network = nets[r.Intn(len(nets))]
			res.Kind = socialgraph.KindPost
		}
		c.Resources = append(c.Resources, res)
		if r.Float64() < 0.005 {
			c.Likes = append(c.Likes, StreamLike{
				Candidate: d.Candidates[r.Intn(len(d.Candidates))],
				Resource:  i,
			})
		}
	}
	return c
}

// ApplyChunk appends a bulk chunk to the dataset's graph: users,
// resources (ids assigned consecutively in slice order) and candidate
// likes. It records the assigned id ranges in the chunk. Chunks must
// be applied in the order they were generated.
func (d *Dataset) ApplyChunk(c *StreamChunk) {
	g := d.Graph
	c.FirstUser = socialgraph.UserID(g.NumUsers())
	users := make([]socialgraph.UserID, len(c.Users))
	for i, u := range c.Users {
		users[i] = g.AddUser(u.Name, false)
	}
	c.FirstResource = socialgraph.ResourceID(g.NumResources())
	for _, res := range c.Resources {
		creator := users[res.User]
		if res.Container != socialgraph.NoContainer {
			g.AddContainedResource(res.Kind, res.Container, creator, res.Text, res.URLs...)
		} else {
			rid := g.AddResource(res.Network, res.Kind, creator, res.Text, res.URLs...)
			g.Owns(creator, rid)
		}
	}
	for _, l := range c.Likes {
		g.Annotates(l.Candidate, c.FirstResource+socialgraph.ResourceID(l.Resource))
	}
}

// BlankChunkTexts clears the text of every resource of an applied
// chunk, keeping the graph structure (creators, containers, edges)
// while releasing the bulk of the memory — used by streaming builds
// after a chunk has been analyzed and persisted. The blanked graph
// still answers traversals and candidate aggregation; only re-analysis
// of the blanked resources becomes impossible.
func (d *Dataset) BlankChunkTexts(c *StreamChunk) {
	for i := range c.Resources {
		d.Graph.SetResourceText(c.FirstResource+socialgraph.ResourceID(i), "")
	}
}
