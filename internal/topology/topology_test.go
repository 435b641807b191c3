package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds:
//
//	A --1(100)-- B --3(100)-- D
//	A --2(150)-- C --4(150)-- D
//	B --5(50)--- C
func diamond(t *testing.T) *Optical {
	t.Helper()
	g := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddFiber("1", "A", "B", 100))
	must(g.AddFiber("2", "A", "C", 150))
	must(g.AddFiber("3", "B", "D", 100))
	must(g.AddFiber("4", "C", "D", 150))
	must(g.AddFiber("5", "B", "C", 50))
	return g
}

func TestAddFiberValidation(t *testing.T) {
	g := New()
	if err := g.AddFiber("", "A", "B", 10); err == nil {
		t.Error("empty fiber ID accepted")
	}
	if err := g.AddFiber("x", "A", "A", 10); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddFiber("x", "A", "B", 0); err == nil {
		t.Error("zero length accepted")
	}
	if err := g.AddFiber("x", "A", "B", 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddFiber("x", "B", "C", 10); err == nil {
		t.Error("duplicate fiber ID accepted")
	}
	if g.NumNodes() != 2 || g.NumFibers() != 1 {
		t.Errorf("graph has %d nodes, %d fibers; want 2, 1", g.NumNodes(), g.NumFibers())
	}
}

func TestFiberOther(t *testing.T) {
	f := Fiber{ID: "1", A: "X", B: "Y"}
	if n, ok := f.Other("X"); !ok || n != "Y" {
		t.Errorf("Other(X) = %v, %v", n, ok)
	}
	if n, ok := f.Other("Y"); !ok || n != "X" {
		t.Errorf("Other(Y) = %v, %v", n, ok)
	}
	if _, ok := f.Other("Z"); ok {
		t.Error("Other(Z) should fail")
	}
}

func TestShortestPath(t *testing.T) {
	g := diamond(t)
	p, ok := g.ShortestPath("A", "D")
	if !ok {
		t.Fatal("no path A→D")
	}
	if p.LengthKm != 200 {
		t.Errorf("shortest A→D = %v km, want 200", p.LengthKm)
	}
	wantFibers := []string{"1", "3"}
	for i, f := range wantFibers {
		if p.Fibers[i] != f {
			t.Errorf("fiber %d = %s, want %s", i, p.Fibers[i], f)
		}
	}
	if p.Src() != "A" || p.Dst() != "D" || p.Hops() != 2 {
		t.Errorf("path endpoints/hops wrong: %v", p)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := diamond(t)
	p, ok := g.ShortestPath("A", "A")
	if !ok || p.LengthKm != 0 || p.Hops() != 0 {
		t.Errorf("self path = %v, %v", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := diamond(t)
	g.AddNode("Z")
	if _, ok := g.ShortestPath("A", "Z"); ok {
		t.Error("path to isolated node found")
	}
	if _, ok := g.ShortestPath("A", "missing"); ok {
		t.Error("path to missing node found")
	}
}

func TestParallelFibers(t *testing.T) {
	g := New()
	if err := g.AddFiber("long", "A", "B", 200); err != nil {
		t.Fatal(err)
	}
	if err := g.AddFiber("short", "A", "B", 100); err != nil {
		t.Fatal(err)
	}
	p, ok := g.ShortestPath("A", "B")
	if !ok || p.LengthKm != 100 || p.Fibers[0] != "short" {
		t.Errorf("multigraph shortest = %v (fibers %v)", p, p.Fibers)
	}
	// KSP must see both parallel fibers as distinct paths.
	paths := g.KShortestPaths("A", "B", 3)
	if len(paths) != 2 {
		t.Fatalf("KSP over parallel fibers = %d paths, want 2", len(paths))
	}
	if paths[0].Fibers[0] != "short" || paths[1].Fibers[0] != "long" {
		t.Errorf("KSP order wrong: %v", paths)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := diamond(t)
	paths := g.KShortestPaths("A", "D", 4)
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	wantLens := []float64{200, 300, 300, 300}
	for i, p := range paths {
		if p.LengthKm != wantLens[i] {
			t.Errorf("path %d length = %v, want %v (%v)", i, p.LengthKm, wantLens[i], p)
		}
		// Loopless check.
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %d revisits node %s", i, n)
			}
			seen[n] = true
		}
	}
	// All paths distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestPathsEdges(t *testing.T) {
	g := diamond(t)
	if got := g.KShortestPaths("A", "D", 0); got != nil {
		t.Error("k=0 returned paths")
	}
	if got := g.KShortestPaths("A", "missing", 3); got != nil {
		t.Error("missing dst returned paths")
	}
	// Request more paths than exist.
	paths := g.KShortestPaths("A", "D", 100)
	if len(paths) == 0 || len(paths) > 10 {
		t.Errorf("k=100 returned %d paths", len(paths))
	}
}

func TestWithout(t *testing.T) {
	g := diamond(t)
	paths := g.KShortestPaths("A", "D", 1, "1")
	if len(paths) != 1 {
		t.Fatal("no restoration path after cut")
	}
	if paths[0].LengthKm != 300 {
		// A-C(150)-D(150) or A-C-B-D = 150+50+100 = 300; both length 300.
		t.Errorf("post-cut shortest = %v km, want 300", paths[0].LengthKm)
	}
	for _, f := range paths[0].Fibers {
		if f == "1" {
			t.Errorf("post-cut path %v uses the cut fiber", paths[0].Fibers)
		}
	}
	// The graph itself is untouched.
	if p, _ := g.ShortestPath("A", "D"); g.NumFibers() != 5 || p.LengthKm != 200 {
		t.Errorf("cut search mutated the graph: %d fibers, shortest %v km", g.NumFibers(), p.LengthKm)
	}
	// The oracle's copy-without agrees and leaves four fibers.
	if o := oracleOf(g).Without("1"); len(o.fibers) != 4 {
		t.Errorf("oracle Without left %d fibers, want 4", len(o.fibers))
	}
	// Cutting everything disconnects; unknown cut IDs are ignored.
	if got := g.KShortestPaths("A", "D", 3, "1", "2"); got != nil {
		t.Errorf("paths found after cutting all fibers out of A: %v", got)
	}
	if got := g.KShortestPaths("A", "D", 1, "nope"); len(got) != 1 || got[0].LengthKm != 200 {
		t.Errorf("unknown cut ID changed the answer: %v", got)
	}
}

func TestDiameter(t *testing.T) {
	g := diamond(t)
	if d := g.Diameter(); d != 200 {
		t.Errorf("diameter = %v, want 200 (A↔D)", d)
	}
	g.AddNode("isolated")
	if d := g.Diameter(); !math.IsInf(d, 1) {
		t.Errorf("diameter of disconnected graph = %v, want +Inf", d)
	}
}

func TestIPTopology(t *testing.T) {
	var ip IPTopology
	if err := ip.AddLink(IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400}); err != nil {
		t.Fatal(err)
	}
	if err := ip.AddLink(IPLink{ID: "e1", A: "A", B: "C", DemandGbps: 100}); err == nil {
		t.Error("duplicate link ID accepted")
	}
	if err := ip.AddLink(IPLink{ID: "e2", A: "A", B: "A", DemandGbps: 100}); err == nil {
		t.Error("self-loop accepted")
	}
	if err := ip.AddLink(IPLink{ID: "e3", A: "A", B: "C", DemandGbps: 0}); err == nil {
		t.Error("zero demand accepted")
	}
	if err := ip.AddLink(IPLink{ID: "", A: "A", B: "C", DemandGbps: 5}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := ip.AddLink(IPLink{ID: "e4", A: "B", B: "C", DemandGbps: 600}); err != nil {
		t.Fatal(err)
	}
	if got := ip.TotalDemandGbps(); got != 1000 {
		t.Errorf("total demand = %d, want 1000", got)
	}
	scaled := ip.Scale(2.5)
	if got := scaled.TotalDemandGbps(); got != 2500 {
		t.Errorf("scaled demand = %d, want 2500", got)
	}
	if ip.TotalDemandGbps() != 1000 {
		t.Error("Scale mutated the original")
	}
}

// randomGraph builds a connected random graph: a ring plus chords.
func randomGraph(rng *rand.Rand, n int) *Optical {
	g := New()
	id := 0
	addFiber := func(a, b NodeID, l float64) {
		id++
		_ = g.AddFiber(nodeName(id), a, b, l)
	}
	names := make([]NodeID, n)
	for i := range names {
		names[i] = NodeID(rune('A' + i))
	}
	for i := 0; i < n; i++ {
		addFiber(names[i], names[(i+1)%n], 50+rng.Float64()*500)
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			addFiber(names[a], names[b], 50+rng.Float64()*500)
		}
	}
	return g
}

func nodeName(i int) string {
	return "f" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// Property: Yen's paths are sorted by length, loopless, distinct, start
// and end correctly, and the first equals Dijkstra's answer.
func TestKSPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		g := randomGraph(rng, n)
		src, dst := NodeID('A'), NodeID(rune('A'+n-1))
		paths := g.KShortestPaths(src, dst, 5)
		if len(paths) == 0 {
			return false // ring guarantees connectivity
		}
		sp, _ := g.ShortestPath(src, dst)
		if math.Abs(paths[0].LengthKm-sp.LengthKm) > 1e-9 {
			return false
		}
		for i, p := range paths {
			if p.Src() != src || p.Dst() != dst {
				return false
			}
			if i > 0 && p.LengthKm < paths[i-1].LengthKm-1e-9 {
				return false
			}
			seen := map[NodeID]bool{}
			for _, nd := range p.Nodes {
				if seen[nd] {
					return false
				}
				seen[nd] = true
			}
			// Fiber sequence must connect the node sequence.
			total := 0.0
			for h, fid := range p.Fibers {
				fb, ok := g.Fiber(fid)
				if !ok {
					return false
				}
				next, ok := fb.Other(p.Nodes[h])
				if !ok || next != p.Nodes[h+1] {
					return false
				}
				total += fb.LengthKm
			}
			if math.Abs(total-p.LengthKm) > 1e-6 {
				return false
			}
			for j := i + 1; j < len(paths); j++ {
				if p.Equal(paths[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cutting a fiber never shortens a shortest path.
func TestWithoutMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6)
		fibers := g.Fibers()
		cut := fibers[rng.Intn(len(fibers))].ID
		before, okB := g.ShortestPath("A", "F")
		after := g.KShortestPaths("A", "F", 1, cut)
		if !okB {
			return false
		}
		if len(after) == 0 {
			return true // disconnection is a valid outcome
		}
		return after[0].LengthKm >= before.LengthKm-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: on random multigraphs (parallel fibers, ties, cuts) the index
// search returns exactly the map-based oracle's paths on the graph copied
// without the cut fibers, for every ordered node pair.
func TestKSPMatchesOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g := randomGraph(rng, n)
		// Equal lengths make the fiber-ID tie-breaks decide.
		if rng.Intn(2) == 0 {
			for fi := range g.lengths {
				g.lengths[fi] = float64(100 * (1 + rng.Intn(3)))
			}
		}
		fibers := g.Fibers()
		var cut []string
		for c := rng.Intn(3); c > 0; c-- {
			cut = append(cut, fibers[rng.Intn(len(fibers))].ID)
		}
		o := oracleOf(g).Without(cut...)
		k := 1 + rng.Intn(6)
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				want := o.KShortestPaths(a, b, k)
				got := g.KShortestPaths(a, b, k, cut...)
				if !reflect.DeepEqual(got, want) {
					t.Logf("seed %d cut %v %s→%s k=%d:\n got %v\nwant %v", seed, cut, a, b, k, got, want)
					return false
				}
				if len(cut) == 0 {
					sp, ok := g.ShortestPath(a, b)
					osp, ook := o.ShortestPath(a, b)
					if ok != ook || !reflect.DeepEqual(sp, osp) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
