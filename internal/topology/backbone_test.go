package topology_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flexwan/internal/topology"
	"flexwan/internal/workload"
)

// backbones are the generated networks the restoration layer searches.
func backbones() []workload.Network {
	return []workload.Network{workload.Cernet(1), workload.TBackbone(1), workload.TBackbone(2)}
}

// TestKSPMatchesOracleOnBackbones is the differential check of the
// cut-aware index search against the map-based oracle run on the graph
// copied without the cut fibers: random 0–2-fiber cuts, sampled ordered
// node pairs and k ∈ {1, 3, 5}. Paths, order and lengths must be
// identical, tie-breaks included. 4 050 cases; well under 2 s without
// the race detector.
func TestKSPMatchesOracleOnBackbones(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range backbones() {
		g := n.Optical
		oracle := topology.OracleOf(g)
		nodes := g.Nodes()
		fibers := g.Fibers()
		for trial := 0; trial < 30; trial++ {
			var cut []string
			for c := trial % 3; c > 0; c-- {
				cut = append(cut, fibers[rng.Intn(len(fibers))].ID)
			}
			post := oracle.Without(cut...)
			for pair := 0; pair < 15; pair++ {
				a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				for _, k := range []int{1, 3, 5} {
					want := post.KShortestPaths(a, b, k)
					got := g.KShortestPaths(a, b, k, cut...)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s cut %v %s→%s k=%d:\n got %v\nwant %v", n.Name, cut, a, b, k, got, want)
					}
				}
			}
		}
	}
}

// TestKSPConcurrentSharedGraph runs KSP from 8 goroutines on one shared
// *Optical, as sweep workers do, and requires every answer to match the
// sequential one. Under -race this also proves the search scratch is
// never shared between calls.
func TestKSPConcurrentSharedGraph(t *testing.T) {
	g := workload.TBackbone(1).Optical
	nodes := g.Nodes()
	fibers := g.Fibers()
	type query struct {
		a, b topology.NodeID
		cut  string
	}
	var queries []query
	want := map[query]string{}
	for i := 0; i < 40; i++ {
		q := query{nodes[i%len(nodes)], nodes[(7*i+3)%len(nodes)], fibers[(5*i)%len(fibers)].ID}
		queries = append(queries, q)
		want[q] = fmt.Sprint(g.KShortestPaths(q.a, q.b, 4, q.cut))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := range queries {
					q := queries[(i+w)%len(queries)]
					if got := fmt.Sprint(g.KShortestPaths(q.a, q.b, 4, q.cut)); got != want[q] {
						errs <- fmt.Sprintf("worker %d %v: got %s, want %s", w, q, got, want[q])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
