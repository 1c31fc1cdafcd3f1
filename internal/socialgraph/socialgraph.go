// Package socialgraph implements the platform-independent social
// network meta-model of the paper (Fig. 2): User Profiles, Resources,
// Resource Containers and URLs, connected by social relationships
// (friendship / follows), creates, owns, annotates, relatesTo and
// contains edges.
//
// Every textual object — including user profiles and container
// descriptions — is represented as a Resource, so that the same
// indexing and matching machinery applies uniformly; the paper treats
// profiles exactly this way (they are the distance-0 resources of
// Table 1).
//
// The central query is ResourcesWithin, which enumerates the resources
// related to an expert candidate at graph distance 0, 1 and 2
// following precisely the paths of Table 1.
package socialgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Network identifies a social platform.
type Network string

// The social networks considered in the paper.
const (
	Facebook Network = "facebook"
	Twitter  Network = "twitter"
	LinkedIn Network = "linkedin"
)

// Networks lists all platforms in the paper's order.
var Networks = []Network{Facebook, Twitter, LinkedIn}

// UserID identifies a user (a person, possibly present on several
// networks).
type UserID int32

// ResourceID identifies a resource.
type ResourceID int32

// ContainerID identifies a resource container.
type ContainerID int32

// NoContainer marks a resource that lives outside any container.
const NoContainer ContainerID = -1

// ResourceKind classifies resources by their platform role.
type ResourceKind uint8

// Resource kinds.
const (
	KindProfile       ResourceKind = iota // user profile text (distance-0 resource)
	KindPost                              // Facebook status update / wall post
	KindTweet                             // Twitter tweet
	KindGroupPost                         // post inside a group
	KindPagePost                          // post on a page
	KindUpdate                            // LinkedIn status update
	KindContainerDesc                     // textual description of a container
)

// String returns the kind name.
func (k ResourceKind) String() string {
	switch k {
	case KindProfile:
		return "profile"
	case KindPost:
		return "post"
	case KindTweet:
		return "tweet"
	case KindGroupPost:
		return "group-post"
	case KindPagePost:
		return "page-post"
	case KindUpdate:
		return "update"
	case KindContainerDesc:
		return "container-desc"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// User is a person registered on one or more networks.
type User struct {
	ID        UserID
	Name      string
	Candidate bool // member of the expert-candidate pool CE
}

// Resource is any informative material found inside a social platform.
type Resource struct {
	ID        ResourceID
	Network   Network
	Kind      ResourceKind
	Text      string
	URLs      []string    // links to external Web pages
	Creator   UserID      // who authored the resource
	Container ContainerID // NoContainer when standalone
}

// ContainerKind classifies resource containers.
type ContainerKind uint8

// Container kinds.
const (
	ContainerGroup ContainerKind = iota // Facebook / LinkedIn group
	ContainerPage                       // Facebook page
)

// String returns the container kind name.
func (k ContainerKind) String() string {
	if k == ContainerPage {
		return "page"
	}
	return "group"
}

// Container is a logical aggregator of resources (group, page),
// typically focused on a specific topic or real-world entity.
type Container struct {
	ID      ContainerID
	Network Network
	Kind    ContainerKind
	Name    string
	Desc    ResourceID // the description, itself a resource
}

type profileKey struct {
	user UserID
	net  Network
}

// Graph is a mutable in-memory social graph spanning all networks.
// Graph methods panic when given identifiers that were not returned
// by the corresponding Add method, mirroring slice indexing: the graph
// is built programmatically by generators and loaders that control
// their inputs.
//
// Graph is safe for concurrent use: public mutators hold a graph-wide
// write lock, public readers (traversals included) hold the read lock
// for their full duration, so a live ingest applying resource changes
// never exposes a torn view to concurrent queries.
type Graph struct {
	mu sync.RWMutex

	users      []User
	resources  []Resource
	containers []Container

	profiles map[profileKey]ResourceID

	owns      map[UserID][]ResourceID
	creates   map[UserID][]ResourceID
	annotates map[UserID][]ResourceID
	relatesTo map[UserID][]ContainerID
	contains  map[ContainerID][]ResourceID
	follows   map[Network]map[UserID]map[UserID]bool

	// deleted tombstones removed resources. Resource IDs are positional
	// (slice indices), so records are never physically deleted; the
	// tombstone hides them from traversal and corpus builds while their
	// record stays readable for delta bookkeeping.
	deleted map[ResourceID]bool

	journal journal
	// edges counts the mutations that are not record changes: follows,
	// friendships, memberships, ownership, annotations and containers.
	// A reachability table reflects one value of it (see CatchUp).
	edges atomic.Uint64

	// origin is what StampOrigin recorded: the source this graph was
	// loaded as an exact copy of, and the edges generation then.
	origin      string
	originEdges uint64
}

// JournalWindow is how many record changes the change journal keeps:
// ChangedSince answers a cursor at most this many changes old.
const JournalWindow = 1 << 16

// journal is the graph's bounded change journal: the resource ids
// whose records changed, in mutation order. It is off (head 0) until
// the first ChangedSince call or reachability build, so a graph nobody
// asks pays one branch per mutation. Position p (from 1) lives at
// ring[(p-1)%JournalWindow]; head is the position the next change
// takes. Writers hold the graph's write lock; head is atomic so a
// reachability table can compare its cursor without the lock.
type journal struct {
	head atomic.Uint64
	ring []ResourceID
}

// record journals a change to r's record; the caller holds the write
// lock.
func (j *journal) record(r ResourceID) {
	h := j.head.Load()
	if h == 0 {
		return
	}
	if len(j.ring) < JournalWindow {
		j.ring = append(j.ring, r)
	} else {
		j.ring[(h-1)%JournalWindow] = r
	}
	j.head.Store(h + 1)
}

// on switches the journal on and returns its head; the caller holds
// the lock in either mode.
func (j *journal) on() uint64 {
	j.head.CompareAndSwap(0, 1)
	return j.head.Load()
}

// since returns the ids changed since cursor, sorted and without
// repeats, the cursor to ask with next, and ok=false when the journal
// cannot answer cursor: zero, never issued, or older than the window.
// The caller holds the lock in either mode.
func (j *journal) since(cursor uint64) (ids []ResourceID, next uint64, ok bool) {
	head := j.on()
	if cursor == 0 || cursor > head || head-cursor > uint64(len(j.ring)) {
		return nil, head, false
	}
	ids = make([]ResourceID, 0, head-cursor)
	for p := cursor; p < head; p++ {
		ids = append(ids, j.ring[(p-1)%JournalWindow])
	}
	slices.Sort(ids)
	return slices.Compact(ids), head, true
}

// ChangedSince returns the ids of the resources whose records changed
// (added, text or URLs replaced, removed) since cursor, sorted and
// without repeats, and the cursor to ask with next time. ok is false
// when the journal cannot answer: a zero cursor, a cursor this graph
// never issued, or one older than JournalWindow changes. The first
// call, or the first Reachability, switches the journal on; changes
// before it are not recorded.
func (g *Graph) ChangedSince(cursor uint64) (ids []ResourceID, next uint64, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.journal.since(cursor)
}

// StampOrigin records, once, at the end of a load, that the graph is
// an exact copy of the source named id: every record and edge as the
// source holds them. It restarts the change journal at position 1, so
// a cursor of 1 means "as the source says", on this graph and on any
// other copy of the same source stamped the same way. Stamp before any
// reachability table is built; an empty id, or a second stamp, panics.
func (g *Graph) StampOrigin(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id == "" || g.origin != "" {
		panic(fmt.Sprintf("socialgraph: stamping origin %q over %q", id, g.origin))
	}
	g.origin, g.originEdges = id, g.edges.Load()
	g.journal.ring = nil
	g.journal.head.Store(1)
}

// Origin returns the source StampOrigin recorded ("" when the graph
// was never stamped) and whether the graph is still pristine: no
// record changed (the journal head is still 1) and no edge changed
// since the stamp, so it still equals the source at cursor 1.
func (g *Graph) Origin() (id string, pristine bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.origin, g.origin != "" && g.journal.head.Load() == 1 && g.edges.Load() == g.originEdges
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		profiles:  make(map[profileKey]ResourceID),
		owns:      make(map[UserID][]ResourceID),
		creates:   make(map[UserID][]ResourceID),
		annotates: make(map[UserID][]ResourceID),
		relatesTo: make(map[UserID][]ContainerID),
		contains:  make(map[ContainerID][]ResourceID),
		follows:   make(map[Network]map[UserID]map[UserID]bool),
		deleted:   make(map[ResourceID]bool),
	}
}

// AddUser registers a user and returns its ID.
func (g *Graph) AddUser(name string, candidate bool) UserID {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := UserID(len(g.users))
	g.users = append(g.users, User{ID: id, Name: name, Candidate: candidate})
	return id
}

// SetProfile attaches profile text for user on a network, creating
// the backing profile resource. A user has at most one profile per
// network; setting it twice replaces the text.
func (g *Graph) SetProfile(u UserID, net Network, text string, urls ...string) ResourceID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(u)
	key := profileKey{u, net}
	if rid, ok := g.profiles[key]; ok {
		g.resources[rid].Text = text
		g.resources[rid].URLs = urls
		g.journal.record(rid)
		return rid
	}
	rid := g.addResource(Resource{
		Network: net, Kind: KindProfile, Text: text, URLs: urls,
		Creator: u, Container: NoContainer,
	})
	g.profiles[key] = rid
	return rid
}

// SetResourceText replaces the text and URLs of an existing resource
// in place — the "update" leg of an ingest delta. The resource must
// not be deleted.
func (g *Graph) SetResourceText(r ResourceID, text string, urls ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	res := g.resource(r)
	if g.deleted[r] {
		panic(fmt.Sprintf("socialgraph: updating deleted resource %d", r))
	}
	res.Text = text
	res.URLs = urls
	g.journal.record(r)
}

// RemoveResource tombstones a resource: it disappears from traversals
// and corpus builds, while its record remains readable (IDs are
// positional, so nothing shifts). Profiles cannot be removed — replace
// them via SetProfile. Removing an unknown or already-removed resource
// panics.
func (g *Graph) RemoveResource(r ResourceID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	res := g.resource(r)
	if res.Kind == KindProfile {
		panic(fmt.Sprintf("socialgraph: removing profile resource %d", r))
	}
	if g.deleted[r] {
		panic(fmt.Sprintf("socialgraph: removing already-removed resource %d", r))
	}
	g.deleted[r] = true
	g.journal.record(r)
}

// ResourceDeleted reports whether r has been tombstoned.
func (g *Graph) ResourceDeleted(r ResourceID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.resource(r)
	return g.deleted[r]
}

// Profile returns the profile resource of user u on net, if any.
func (g *Graph) Profile(u UserID, net Network) (ResourceID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	rid, ok := g.profiles[profileKey{u, net}]
	return rid, ok
}

// AddResource registers a standalone resource created by creator and
// returns its ID. The creates edge is recorded automatically.
func (g *Graph) AddResource(net Network, kind ResourceKind, creator UserID, text string, urls ...string) ResourceID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(creator)
	rid := g.addResource(Resource{
		Network: net, Kind: kind, Text: text, URLs: urls,
		Creator: creator, Container: NoContainer,
	})
	g.creates[creator] = append(g.creates[creator], rid)
	return rid
}

// AddContainer registers a container with its textual description
// (authored by owner, typically the group/page creator) and returns
// its ID.
func (g *Graph) AddContainer(net Network, kind ContainerKind, owner UserID, name, desc string) ContainerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(owner)
	descID := g.addResource(Resource{
		Network: net, Kind: KindContainerDesc, Text: desc,
		Creator: owner, Container: NoContainer,
	})
	cid := ContainerID(len(g.containers))
	g.containers = append(g.containers, Container{
		ID: cid, Network: net, Kind: kind, Name: name, Desc: descID,
	})
	g.edges.Add(1)
	return cid
}

// AddContainedResource registers a resource inside container c,
// created by creator, recording both the creates and contains edges.
func (g *Graph) AddContainedResource(kind ResourceKind, c ContainerID, creator UserID, text string, urls ...string) ResourceID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(creator)
	cont := g.container(c)
	rid := g.addResource(Resource{
		Network: cont.Network, Kind: kind, Text: text, URLs: urls,
		Creator: creator, Container: c,
	})
	g.creates[creator] = append(g.creates[creator], rid)
	g.contains[c] = append(g.contains[c], rid)
	return rid
}

func (g *Graph) addResource(r Resource) ResourceID {
	r.ID = ResourceID(len(g.resources))
	g.resources = append(g.resources, r)
	g.journal.record(r.ID)
	return r.ID
}

// Owns records that the resource appears on u's wall or stream
// (published there, possibly created by someone else).
func (g *Graph) Owns(u UserID, r ResourceID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(u)
	g.resource(r)
	g.owns[u] = append(g.owns[u], r)
	g.edges.Add(1)
}

// Annotates records that u liked / marked as favourite the resource.
func (g *Graph) Annotates(u UserID, r ResourceID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(u)
	g.resource(r)
	g.annotates[u] = append(g.annotates[u], r)
	g.edges.Add(1)
}

// RelatesTo records that u belongs to (or likes) the container.
func (g *Graph) RelatesTo(u UserID, c ContainerID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.user(u)
	g.container(c)
	g.relatesTo[u] = append(g.relatesTo[u], c)
	g.edges.Add(1)
}

// Follows records the directed social relationship a → b on net.
// A bidirectional pair of Follows edges constitutes a friendship
// (paper §2.2): Facebook friendships are stored as mutual follows.
func (g *Graph) Follows(a, b UserID, net Network) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addFollows(a, b, net)
}

// addFollows is Follows without the lock; the caller holds it.
func (g *Graph) addFollows(a, b UserID, net Network) {
	g.user(a)
	g.user(b)
	if a == b {
		panic("socialgraph: self-follow")
	}
	m := g.follows[net]
	if m == nil {
		m = make(map[UserID]map[UserID]bool)
		g.follows[net] = m
	}
	if m[a] == nil {
		m[a] = make(map[UserID]bool)
	}
	m[a][b] = true
	g.edges.Add(1)
}

// Befriend records a bidirectional relationship on net.
func (g *Graph) Befriend(a, b UserID, net Network) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addFollows(a, b, net)
	g.addFollows(b, a, net)
}

// IsFriend reports whether a and b mutually follow each other on net.
func (g *Graph) IsFriend(a, b UserID, net Network) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m := g.follows[net]
	return m != nil && m[a][b] && m[b][a]
}

// FollowsEdge reports whether the directed edge a → b exists on net.
func (g *Graph) FollowsEdge(a, b UserID, net Network) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m := g.follows[net]
	return m != nil && m[a][b]
}

// User returns the user record.
func (g *Graph) User(u UserID) User {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return *g.user(u)
}

// Resource returns the resource record. Tombstoned resources remain
// readable (see RemoveResource).
func (g *Graph) Resource(r ResourceID) Resource {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return *g.resource(r)
}

// Container returns the container record.
func (g *Graph) Container(c ContainerID) Container {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return *g.container(c)
}

// NumUsers returns the number of registered users.
func (g *Graph) NumUsers() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.users)
}

// NumResources returns the number of resource slots, profiles,
// container descriptions and tombstoned resources included (IDs are
// positional, so the count never shrinks).
func (g *Graph) NumResources() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.resources)
}

// NumContainers returns the number of containers.
func (g *Graph) NumContainers() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.containers)
}

// ContainedResources returns the resources contained in c (a copy).
func (g *Graph) ContainedResources(c ContainerID) []ResourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.container(c)
	out := make([]ResourceID, len(g.contains[c]))
	copy(out, g.contains[c])
	return out
}

// OwnedBy returns the resources on u's wall or stream (a copy).
func (g *Graph) OwnedBy(u UserID) []ResourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.user(u)
	out := make([]ResourceID, len(g.owns[u]))
	copy(out, g.owns[u])
	return out
}

// CreatedBy returns the resources authored by u (a copy).
func (g *Graph) CreatedBy(u UserID) []ResourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.user(u)
	out := make([]ResourceID, len(g.creates[u]))
	copy(out, g.creates[u])
	return out
}

// AnnotatedBy returns the resources u liked or favourited (a copy).
func (g *Graph) AnnotatedBy(u UserID) []ResourceID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.user(u)
	out := make([]ResourceID, len(g.annotates[u]))
	copy(out, g.annotates[u])
	return out
}

// RelatedContainers returns the containers u relates to (a copy).
func (g *Graph) RelatedContainers(u UserID) []ContainerID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.user(u)
	out := make([]ContainerID, len(g.relatesTo[u]))
	copy(out, g.relatesTo[u])
	return out
}

// Users returns all users.
func (g *Graph) Users() []User {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]User, len(g.users))
	copy(out, g.users)
	return out
}

// Candidates returns the expert-candidate pool CE, ordered by ID.
func (g *Graph) Candidates() []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []UserID
	for _, u := range g.users {
		if u.Candidate {
			out = append(out, u.ID)
		}
	}
	return out
}

func (g *Graph) user(u UserID) *User {
	if int(u) < 0 || int(u) >= len(g.users) {
		panic(fmt.Sprintf("socialgraph: unknown user %d", u))
	}
	return &g.users[u]
}

func (g *Graph) resource(r ResourceID) *Resource {
	if int(r) < 0 || int(r) >= len(g.resources) {
		panic(fmt.Sprintf("socialgraph: unknown resource %d", r))
	}
	return &g.resources[r]
}

func (g *Graph) container(c ContainerID) *Container {
	if int(c) < 0 || int(c) >= len(g.containers) {
		panic(fmt.Sprintf("socialgraph: unknown container %d", c))
	}
	return &g.containers[c]
}
