// Package topology models the two layers of a WAN backbone: the optical
// topology (ROADM sites connected by fiber segments) and the IP topology
// (router pairs with bandwidth-capacity demands riding on optical paths).
//
// Algorithm 1 of the FlexWAN paper takes both graphs as input and
// pre-computes, per IP link, the K shortest optical paths (§5, "we use K
// shortest path (KSP) algorithm to find the K optimal optical paths").
// This package provides those primitives: an undirected multigraph with
// fiber lengths, Dijkstra shortest paths, and Yen's loopless K shortest
// paths that can treat a set of cut fibers as absent — the post-failure
// topology the restoration algorithm (§8) searches.
package topology

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// NodeID names a ROADM site (equivalently a region; the paper maps each
// IP node to the region's optical site).
type NodeID string

// Fiber is one fiber segment between two ROADM sites. Fibers are
// undirected: a wavelength can be added/dropped in either direction.
type Fiber struct {
	ID       string
	A, B     NodeID
	LengthKm float64
}

// Other returns the far end of the fiber from n, and false if n is not an
// endpoint.
func (f Fiber) Other(n NodeID) (NodeID, bool) {
	switch n {
	case f.A:
		return f.B, true
	case f.B:
		return f.A, true
	default:
		return "", false
	}
}

// Optical is the optical-layer topology G_o(V_o, E_o): ROADMs and fibers.
// It is a multigraph — parallel fibers between the same sites are common
// in production. The zero value is empty and ready to use via New.
//
// Sites and fibers are numbered densely in insertion order as they are
// added, and the searches run on those indices: adjacency, fiber
// endpoints and lengths are slices, and only the two ID lookups are maps.
// An Optical is read-only once built; any number of goroutines may search
// it concurrently, since every search keeps its scratch to itself.
type Optical struct {
	nodeIdx  map[NodeID]int32
	fiberIdx map[string]int32
	names    []NodeID   // node index → site
	adj      [][]int32  // node index → incident fiber indices, insertion order
	fiberIDs []string   // fiber index → ID
	ends     [][2]int32 // fiber index → endpoint node indices (A, B)
	lengths  []float64  // fiber index → length in km
}

// New returns an empty optical topology.
func New() *Optical {
	return &Optical{
		nodeIdx:  make(map[NodeID]int32),
		fiberIdx: make(map[string]int32),
	}
}

// AddNode inserts a ROADM site. Adding an existing node is a no-op.
func (g *Optical) AddNode(id NodeID) {
	g.addNode(id)
}

// addNode returns the index of the site, numbering it on first sight.
func (g *Optical) addNode(id NodeID) int32 {
	if i, ok := g.nodeIdx[id]; ok {
		return i
	}
	i := int32(len(g.names))
	g.nodeIdx[id] = i
	g.names = append(g.names, id)
	g.adj = append(g.adj, nil)
	return i
}

// HasNode reports whether the site exists.
func (g *Optical) HasNode(id NodeID) bool {
	_, ok := g.nodeIdx[id]
	return ok
}

// AddFiber inserts a fiber segment, creating endpoints as needed.
func (g *Optical) AddFiber(id string, a, b NodeID, lengthKm float64) error {
	if id == "" {
		return fmt.Errorf("topology: empty fiber ID")
	}
	if a == b {
		return fmt.Errorf("topology: fiber %s is a self-loop at %s", id, a)
	}
	if lengthKm <= 0 {
		return fmt.Errorf("topology: fiber %s has nonpositive length %v", id, lengthKm)
	}
	if _, dup := g.fiberIdx[id]; dup {
		return fmt.Errorf("topology: duplicate fiber ID %s", id)
	}
	ai, bi := g.addNode(a), g.addNode(b)
	fi := int32(len(g.fiberIDs))
	g.fiberIdx[id] = fi
	g.fiberIDs = append(g.fiberIDs, id)
	g.ends = append(g.ends, [2]int32{ai, bi})
	g.lengths = append(g.lengths, lengthKm)
	g.adj[ai] = append(g.adj[ai], fi)
	g.adj[bi] = append(g.adj[bi], fi)
	return nil
}

// fiber materializes the fiber at index fi.
func (g *Optical) fiber(fi int32) Fiber {
	e := g.ends[fi]
	return Fiber{ID: g.fiberIDs[fi], A: g.names[e[0]], B: g.names[e[1]], LengthKm: g.lengths[fi]}
}

// other returns the far end of fiber fi from node n.
func (g *Optical) other(fi, n int32) int32 {
	e := g.ends[fi]
	if e[0] == n {
		return e[1]
	}
	return e[0]
}

// Fiber returns the fiber with the given ID.
func (g *Optical) Fiber(id string) (Fiber, bool) {
	fi, ok := g.fiberIdx[id]
	if !ok {
		return Fiber{}, false
	}
	return g.fiber(fi), true
}

// Nodes returns all sites in sorted order.
func (g *Optical) Nodes() []NodeID {
	out := append([]NodeID(nil), g.names...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fibers returns all fibers sorted by ID.
func (g *Optical) Fibers() []Fiber {
	out := make([]Fiber, len(g.fiberIDs))
	for fi := range out {
		out[fi] = g.fiber(int32(fi))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumNodes returns the site count.
func (g *Optical) NumNodes() int { return len(g.names) }

// NumFibers returns the fiber count.
func (g *Optical) NumFibers() int { return len(g.fiberIDs) }

// Path is a loopless walk through the optical topology: the node sequence
// and the fiber chosen for each hop. LengthKm is the total fiber length —
// the transmission distance that the optical reach must cover.
type Path struct {
	Nodes    []NodeID
	Fibers   []string
	LengthKm float64
}

// Src returns the first node of the path.
func (p Path) Src() NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Hops returns the number of fiber segments.
func (p Path) Hops() int { return len(p.Fibers) }

// Equal reports whether two paths use the identical fiber sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Fibers) != len(q.Fibers) {
		return false
	}
	for i := range p.Fibers {
		if p.Fibers[i] != q.Fibers[i] {
			return false
		}
	}
	return true
}

func (p Path) String() string {
	return fmt.Sprintf("%v (%.0f km)", p.Nodes, p.LengthKm)
}

// ipath is a path in index form. key is its pathKey, the tie-break and
// deduplication key of Yen's candidate pool.
type ipath struct {
	nodes  []int32
	fibers []int32
	length float64
	key    string
}

// toPath names the sites and fibers of an index path.
func (g *Optical) toPath(p ipath) Path {
	out := Path{
		Nodes:    make([]NodeID, len(p.nodes)),
		Fibers:   make([]string, len(p.fibers)),
		LengthKm: p.length,
	}
	for i, n := range p.nodes {
		out.Nodes[i] = g.names[n]
	}
	for i, f := range p.fibers {
		out.Fibers[i] = g.fiberIDs[f]
	}
	return out
}

// pathKey is the fiber-ID sequence joined and terminated by '|'.
func (g *Optical) pathKey(fibers []int32) string {
	var b strings.Builder
	n := 0
	for _, f := range fibers {
		n += len(g.fiberIDs[f]) + 1
	}
	b.Grow(n)
	for _, f := range fibers {
		b.WriteString(g.fiberIDs[f])
		b.WriteByte('|')
	}
	return b.String()
}

// search is the scratch of one ShortestPath or KShortestPaths call. It is
// built per call, never kept on the Optical, so concurrent searches of one
// graph share nothing mutable. Marks are stamps: a slot counts only while
// it holds the current run's stamp, so each of Yen's Dijkstra runs starts
// by taking a new stamp instead of clearing the arrays.
type search struct {
	g      *Optical
	run    uint64 // stamp of the current Dijkstra run; zero marks nothing
	nodes  []nodeMark
	fibers []fiberMark
	heap   []heapItem
}

type nodeMark struct {
	dist    float64
	prev    int32  // fiber the node was reached by
	reached uint64 // run whose dist and prev are valid
	done    uint64 // run that settled the node
	banned  uint64 // run the node is banned from
}

type fiberMark struct {
	banned uint64 // run the fiber is banned from
	cut    bool   // absent for the whole call
}

type heapItem struct {
	node int32
	dist float64
}

// newSearch returns scratch for g with the given fibers cut for the whole
// call. Unknown cut IDs are ignored.
func (g *Optical) newSearch(cut []string) *search {
	s := &search{
		g:      g,
		nodes:  make([]nodeMark, len(g.names)),
		fibers: make([]fiberMark, len(g.fiberIDs)),
		heap:   make([]heapItem, 0, len(g.fiberIDs)+1),
	}
	for _, id := range cut {
		if fi, ok := g.fiberIdx[id]; ok {
			s.fibers[fi].cut = true
		}
	}
	return s
}

func (s *search) push(it heapItem) {
	h := append(s.heap, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *search) pop() heapItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// dijkstra runs from src to dst over fibers neither cut nor banned in this
// run, never entering a banned node, and reports whether dst was reached.
// Ties are broken deterministically: on equal length the lexicographically
// smaller incoming fiber ID wins, so the result does not depend on heap or
// adjacency order.
func (s *search) dijkstra(src, dst int32) bool {
	g, run, nodes := s.g, s.run, s.nodes
	nodes[src].dist, nodes[src].reached = 0, run
	s.heap = s.heap[:0]
	s.push(heapItem{node: src})
	for len(s.heap) > 0 {
		cur := s.pop()
		if nodes[cur.node].done == run {
			continue
		}
		nodes[cur.node].done = run
		if cur.node == dst {
			return true
		}
		for _, fi := range g.adj[cur.node] {
			if f := s.fibers[fi]; f.cut || f.banned == run {
				continue
			}
			next := g.other(fi, cur.node)
			m := &nodes[next]
			if m.banned == run {
				continue
			}
			nd := cur.dist + g.lengths[fi]
			if m.reached != run || nd < m.dist ||
				(nd == m.dist && g.fiberIDs[fi] < g.fiberIDs[m.prev]) {
				m.dist, m.prev, m.reached = nd, fi, run
				s.push(heapItem{node: next, dist: nd})
			}
		}
	}
	return false
}

// extend returns root followed by the path the last dijkstra run found
// from root's final node to dst. rootLen is root's length.
func (s *search) extend(rootNodes, rootFibers []int32, rootLen float64, dst int32) ipath {
	g, spur := s.g, rootNodes[len(rootNodes)-1]
	hops := 0
	for n := dst; n != spur; n = g.other(s.nodes[n].prev, n) {
		hops++
	}
	p := ipath{
		nodes:  make([]int32, len(rootNodes)+hops),
		fibers: make([]int32, len(rootFibers)+hops),
		length: rootLen + s.nodes[dst].dist,
	}
	copy(p.nodes, rootNodes)
	copy(p.fibers, rootFibers)
	n := dst
	for j := hops; j > 0; j-- {
		fi := s.nodes[n].prev
		p.nodes[len(rootNodes)-1+j] = n
		p.fibers[len(rootFibers)-1+j] = fi
		n = g.other(fi, n)
	}
	return p
}

// ShortestPath runs Dijkstra from src to dst over fiber lengths. The
// second return is false when dst is unreachable. Ties are broken
// deterministically by fiber ID.
func (g *Optical) ShortestPath(src, dst NodeID) (Path, bool) {
	paths := g.KShortestPaths(src, dst, 1)
	if len(paths) == 0 {
		return Path{}, false
	}
	return paths[0], true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in nondecreasing length order (Yen's algorithm). Fewer than k paths are
// returned when the graph does not contain k distinct loopless paths.
//
// Fibers named in cut are treated as absent — the post-failure topology
// G'_o of a fiber-cut scenario (§8) — without copying the graph. Cut IDs
// that name no fiber are ignored. Equal-length paths are ordered by their
// fiber-ID sequence.
func (g *Optical) KShortestPaths(src, dst NodeID, k int, cut ...string) []Path {
	if k <= 0 {
		return nil
	}
	si, okS := g.nodeIdx[src]
	di, okD := g.nodeIdx[dst]
	if !okS || !okD {
		return nil
	}
	if si == di {
		return []Path{{Nodes: []NodeID{src}}}
	}
	s := g.newSearch(cut)
	s.run++
	if !s.dijkstra(si, di) {
		return nil
	}
	first := s.extend([]int32{si}, nil, 0, di)
	paths := []ipath{first}
	// Candidate pool, deduplicated by fiber sequence.
	var candidates []ipath
	seen := map[string]struct{}{g.pathKey(first.fibers): {}}

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Each node of the previous path except the terminal is a
		// potential spur node.
		for i := 0; i < len(last.nodes)-1; i++ {
			rootNodes := last.nodes[:i+1]
			rootFibers := last.fibers[:i]
			rootLen := 0.0
			for _, fi := range rootFibers {
				rootLen += g.lengths[fi]
			}
			s.run++ // a new Dijkstra run; its bans carry this stamp
			// Ban the next fiber of every accepted path sharing this root.
			for _, p := range paths {
				if len(p.fibers) > i && sameRoot(p, rootNodes, rootFibers) {
					s.fibers[p.fibers[i]].banned = s.run
				}
			}
			// Ban root nodes (except the spur) to keep paths loopless.
			for _, n := range rootNodes[:i] {
				s.nodes[n].banned = s.run
			}
			if !s.dijkstra(rootNodes[i], di) {
				continue
			}
			total := s.extend(rootNodes, rootFibers, rootLen, di)
			total.key = g.pathKey(total.fibers)
			if _, dup := seen[total.key]; dup {
				continue
			}
			seen[total.key] = struct{}{}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		// Take the shortest candidate (tie-break by fiber key). Keys are
		// unique, so the order is total and the rest of the pool need
		// not stay sorted.
		best := 0
		for j, c := range candidates[1:] {
			b := candidates[best]
			if c.length < b.length || (c.length == b.length && c.key < b.key) {
				best = j + 1
			}
		}
		paths = append(paths, candidates[best])
		candidates[best] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = g.toPath(p)
	}
	return out
}

func sameRoot(p ipath, rootNodes, rootFibers []int32) bool {
	if len(p.nodes) < len(rootNodes) || len(p.fibers) < len(rootFibers) {
		return false
	}
	for i, n := range rootNodes {
		if p.nodes[i] != n {
			return false
		}
	}
	for i, f := range rootFibers {
		if p.fibers[i] != f {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest-path distance between any two
// sites, or +Inf if the graph is disconnected. Useful for sanity checks
// on generated topologies.
func (g *Optical) Diameter() float64 {
	nodes := g.Nodes()
	worst := 0.0
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			p, ok := g.ShortestPath(a, b)
			if !ok {
				return math.Inf(1)
			}
			if p.LengthKm > worst {
				worst = p.LengthKm
			}
		}
	}
	return worst
}

// IPLink is one IP-layer link e ∈ E: a router pair with a bandwidth
// capacity demand c_e, provisioned over optical paths between the same
// regions.
type IPLink struct {
	ID         string
	A, B       NodeID
	DemandGbps int
}

// IPTopology is the IP layer G(V, E): the demand set the planner must
// satisfy. Links are kept in insertion order.
type IPTopology struct {
	Links []IPLink
}

// AddLink appends an IP link. It rejects duplicates and nonpositive
// demands.
func (t *IPTopology) AddLink(l IPLink) error {
	if l.ID == "" {
		return fmt.Errorf("topology: empty IP link ID")
	}
	if l.A == l.B {
		return fmt.Errorf("topology: IP link %s is a self-loop", l.ID)
	}
	if l.DemandGbps <= 0 {
		return fmt.Errorf("topology: IP link %s has nonpositive demand %d", l.ID, l.DemandGbps)
	}
	for _, e := range t.Links {
		if e.ID == l.ID {
			return fmt.Errorf("topology: duplicate IP link ID %s", l.ID)
		}
	}
	t.Links = append(t.Links, l)
	return nil
}

// TotalDemandGbps sums all link demands.
func (t *IPTopology) TotalDemandGbps() int {
	total := 0
	for _, l := range t.Links {
		total += l.DemandGbps
	}
	return total
}

// Scale returns a copy with every demand multiplied by factor, rounding
// up — the paper's "bandwidth capacity scale" sweep (Fig. 12).
func (t *IPTopology) Scale(factor float64) *IPTopology {
	out := &IPTopology{Links: make([]IPLink, len(t.Links))}
	for i, l := range t.Links {
		l.DemandGbps = int(math.Ceil(float64(l.DemandGbps) * factor))
		out.Links[i] = l
	}
	return out
}
