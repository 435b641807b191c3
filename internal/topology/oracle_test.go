package topology

import (
	"container/heap"
	"sort"
)

// oracle is the map-keyed graph and search the index representation
// replaced: string-keyed adjacency, a container/heap Dijkstra with fresh
// maps per call, and failure projection by copying the graph without the
// cut fibers. It is kept only as the differential reference for the
// index-based search.
type oracle struct {
	nodes  map[NodeID]struct{}
	fibers map[string]Fiber
	adj    map[NodeID][]string // node → incident fiber IDs, insertion order
}

func newOracle() *oracle {
	return &oracle{
		nodes:  make(map[NodeID]struct{}),
		fibers: make(map[string]Fiber),
		adj:    make(map[NodeID][]string),
	}
}

// oracleOf copies g into the map representation, adding fibers in g's
// insertion order.
func oracleOf(g *Optical) *oracle {
	o := newOracle()
	for _, n := range g.names {
		o.nodes[n] = struct{}{}
	}
	for fi := range g.fiberIDs {
		f := g.fiber(int32(fi))
		o.addFiber(f.ID, f.A, f.B, f.LengthKm)
	}
	return o
}

func (g *oracle) addFiber(id string, a, b NodeID, lengthKm float64) {
	g.nodes[a] = struct{}{}
	g.nodes[b] = struct{}{}
	g.fibers[id] = Fiber{ID: id, A: a, B: b, LengthKm: lengthKm}
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
}

func (g *oracle) sortedNodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Without returns a copy of the topology with the given fibers removed —
// the post-failure topology G'_o of a fiber-cut scenario (§8).
func (g *oracle) Without(cut ...string) *oracle {
	cutSet := make(map[string]struct{}, len(cut))
	for _, id := range cut {
		cutSet[id] = struct{}{}
	}
	out := newOracle()
	for n := range g.nodes {
		out.nodes[n] = struct{}{}
	}
	// Preserve insertion order of adjacency for determinism.
	seen := make(map[string]struct{})
	for _, n := range g.sortedNodes() {
		for _, fid := range g.adj[n] {
			if _, isCut := cutSet[fid]; isCut {
				continue
			}
			if _, dup := seen[fid]; dup {
				continue
			}
			seen[fid] = struct{}{}
			f := g.fibers[fid]
			out.addFiber(f.ID, f.A, f.B, f.LengthKm)
		}
	}
	return out
}

type oracleItem struct {
	node NodeID
	dist float64
}

type oracleQueue []oracleItem

func (q oracleQueue) Len() int            { return len(q) }
func (q oracleQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q oracleQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x interface{}) { *q = append(*q, x.(oracleItem)) }
func (q *oracleQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

func (g *oracle) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.shortestPathAvoiding(src, dst, nil, nil)
}

func (g *oracle) shortestPathAvoiding(src, dst NodeID, bannedFibers map[string]struct{}, bannedNodes map[NodeID]struct{}) (Path, bool) {
	_, okS := g.nodes[src]
	_, okD := g.nodes[dst]
	if !okS || !okD {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, true
	}
	dist := map[NodeID]float64{src: 0}
	prevFiber := map[NodeID]string{}
	prevNode := map[NodeID]NodeID{}
	done := map[NodeID]struct{}{}
	frontier := &oracleQueue{{node: src, dist: 0}}
	for frontier.Len() > 0 {
		cur := heap.Pop(frontier).(oracleItem)
		if _, ok := done[cur.node]; ok {
			continue
		}
		done[cur.node] = struct{}{}
		if cur.node == dst {
			break
		}
		for _, fid := range g.adj[cur.node] {
			if _, banned := bannedFibers[fid]; banned {
				continue
			}
			f := g.fibers[fid]
			next, _ := f.Other(cur.node)
			if _, banned := bannedNodes[next]; banned {
				continue
			}
			nd := cur.dist + f.LengthKm
			old, seen := dist[next]
			if !seen || nd < old || (nd == old && fid < prevFiber[next]) {
				dist[next] = nd
				prevFiber[next] = fid
				prevNode[next] = cur.node
				heap.Push(frontier, oracleItem{node: next, dist: nd})
			}
		}
	}
	if _, ok := done[dst]; !ok {
		return Path{}, false
	}
	var nodes []NodeID
	var fibers []string
	for n := dst; n != src; n = prevNode[n] {
		nodes = append(nodes, n)
		fibers = append(fibers, prevFiber[n])
	}
	nodes = append(nodes, src)
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(fibers)-1; i < j; i, j = i+1, j-1 {
		fibers[i], fibers[j] = fibers[j], fibers[i]
	}
	return Path{Nodes: nodes, Fibers: fibers, LengthKm: dist[dst]}, true
}

func (g *oracle) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	seen := map[string]struct{}{oraclePathKey(first): {}}

	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last.Nodes)-1; i++ {
			spur := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]
			rootFibers := last.Fibers[:i]
			rootLen := 0.0
			for _, fid := range rootFibers {
				rootLen += g.fibers[fid].LengthKm
			}
			bannedFibers := make(map[string]struct{})
			for _, p := range paths {
				if len(p.Fibers) > i && oracleSameRoot(p, rootNodes, rootFibers) {
					bannedFibers[p.Fibers[i]] = struct{}{}
				}
			}
			bannedNodes := make(map[NodeID]struct{})
			for _, n := range rootNodes[:i] {
				bannedNodes[n] = struct{}{}
			}
			spurPath, ok := g.shortestPathAvoiding(spur, dst, bannedFibers, bannedNodes)
			if !ok {
				continue
			}
			total := Path{
				Nodes:    append(append([]NodeID{}, rootNodes...), spurPath.Nodes[1:]...),
				Fibers:   append(append([]string{}, rootFibers...), spurPath.Fibers...),
				LengthKm: rootLen + spurPath.LengthKm,
			}
			key := oraclePathKey(total)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].LengthKm != candidates[j].LengthKm {
				return candidates[i].LengthKm < candidates[j].LengthKm
			}
			return oraclePathKey(candidates[i]) < oraclePathKey(candidates[j])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func oracleSameRoot(p Path, rootNodes []NodeID, rootFibers []string) bool {
	if len(p.Nodes) < len(rootNodes) || len(p.Fibers) < len(rootFibers) {
		return false
	}
	for i, n := range rootNodes {
		if p.Nodes[i] != n {
			return false
		}
	}
	for i, f := range rootFibers {
		if p.Fibers[i] != f {
			return false
		}
	}
	return true
}

func oraclePathKey(p Path) string {
	key := ""
	for _, f := range p.Fibers {
		key += f + "|"
	}
	return key
}
