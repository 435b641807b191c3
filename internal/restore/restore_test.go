package restore

import (
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// ring builds the paper's Fig. 4 situation: a short primary path and a
// longer detour.
//
//	A --f1(600)-- B
//	A --f2(500)-- C --f3(700)-- B     (detour: 1200 km)
func ring(t *testing.T) *topology.Optical {
	t.Helper()
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		l    float64
	}{
		{"f1", "A", "B", 600},
		{"f2", "A", "C", 500},
		{"f3", "C", "B", 700},
	} {
		if err := g.AddFiber(f.id, f.a, f.b, f.l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func planFor(t *testing.T, g *topology.Optical, ip *topology.IPTopology, cat transponder.Catalog, grid spectrum.Grid) (plan.Problem, *plan.Result) {
	t.Helper()
	p := plan.Problem{Optical: g, IP: ip, Catalog: cat, Grid: grid, K: 3}
	r, err := plan.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("base plan infeasible: %v", r.Unserved)
	}
	return p, r
}

func ipAB(t *testing.T, demand int) *topology.IPTopology {
	t.Helper()
	ip := &topology.IPTopology{}
	if err := ip.AddLink(topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: demand}); err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestRestoreFig4Scenario(t *testing.T) {
	// Paper Fig. 4 + §8 example: 600 km primary, 1200 km restoration.
	// RADWAN's wavelength was 300G (reach 1100) and must drop to 200G on
	// the 1200 km detour — capability 2/3. FlexWAN planned 600G@150
	// (reach 800) on the primary; on the detour it re-modulates (e.g.
	// 500G@125, reach 1200) and restores more with the one spare pair…
	// per-transponder it also loses, but with equal transponder counts
	// FlexWAN restores strictly more than RADWAN.
	g := ring(t)
	grid := spectrum.DefaultGrid()

	// RADWAN base: 300G demand → one 300G@75 wavelength on the 600 km path.
	pb, rb := planFor(t, g, ipAB(t, 300), transponder.RADWAN(), grid)
	resB, err := Solve(Problem{
		Optical: g, IP: pb.IP, Catalog: pb.Catalog, Grid: grid, Base: rb,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resB.AffectedGbps != 300 {
		t.Fatalf("RADWAN affected = %d, want 300", resB.AffectedGbps)
	}
	if resB.RestoredGbps != 200 {
		t.Errorf("RADWAN restored = %d, want 200 (must drop to QPSK at 1200 km)", resB.RestoredGbps)
	}

	// FlexWAN base with the same demand.
	pf, rf := planFor(t, g, ipAB(t, 300), transponder.SVT(), grid)
	resF, err := Solve(Problem{
		Optical: g, IP: pf.IP, Catalog: pf.Catalog, Grid: grid, Base: rf,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resF.AffectedGbps != 300 {
		t.Fatalf("FlexWAN affected = %d, want 300", resF.AffectedGbps)
	}
	// SVT can re-modulate to 300G with wider spacing (300G@100 reaches
	// 2000 km): full restoration.
	if resF.RestoredGbps != 300 {
		t.Errorf("FlexWAN restored = %d, want 300 (SVT widens spacing per Fig. 4)", resF.RestoredGbps)
	}
	if resF.Capability() <= resB.Capability() {
		t.Errorf("FlexWAN capability %v ≤ RADWAN %v", resF.Capability(), resB.Capability())
	}
	// The restored path must be the 1200 km detour.
	if len(resF.Restored) == 0 || resF.Restored[0].Path.LengthKm != 1200 {
		t.Errorf("restored path = %+v, want 1200 km detour", resF.Restored)
	}
	if s := resF.Restored[0].PathStretch(); s != 2 {
		t.Errorf("path stretch = %v, want 2.0", s)
	}
}

func TestRestoreNoFailureNoOp(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 400), transponder.SVT(), spectrum.DefaultGrid())
	res, err := Solve(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
		Scenario: Scenario{ID: "cut-f2", CutFibers: []string{"f2"}}, // unused fiber
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedGbps != 0 || res.RestoredGbps != 0 || len(res.Restored) != 0 {
		t.Errorf("cut of unused fiber affected traffic: %+v", res)
	}
	if res.Capability() != 1 {
		t.Errorf("capability = %v, want 1", res.Capability())
	}
}

func TestRestoreSpareLimit(t *testing.T) {
	// Two wavelengths lost but detour spectrum only fits both if spares
	// allow; with zero extra spares the count of restored wavelengths is
	// bounded by the lost count.
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 1600), transponder.SVT(), spectrum.DefaultGrid())
	lost := len(r.Wavelengths)
	res, err := Solve(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restored) > lost {
		t.Errorf("restored %d wavelengths with only %d spares", len(res.Restored), lost)
	}
	if res.RestoredGbps > res.AffectedGbps {
		t.Errorf("restored %d > affected %d (constraint 7 violated)", res.RestoredGbps, res.AffectedGbps)
	}
}

func TestRestoreSpectrumRespected(t *testing.T) {
	// Fill the detour with a competing link's traffic so restoration has
	// to fit in what is left. Grid of 12 pixels = 150 GHz.
	g := ring(t)
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "B", DemandGbps: 200},
		{ID: "e2", A: "A", B: "C", DemandGbps: 400}, // occupies f2
	} {
		if err := ip.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: 12}
	p, r := planFor(t, g, ip, transponder.SVT(), grid)
	res, err := Solve(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: grid, Base: r,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever was restored must not conflict with e2's surviving
	// allocation on f2: rebuild occupancy and verify.
	_, surviving := affected(r, []string{"f1"})
	alloc, err := survivorAllocator(grid, surviving)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Restored {
		fibers := make([]spectrum.FiberID, len(w.Path.Fibers))
		for i, f := range w.Path.Fibers {
			fibers[i] = spectrum.FiberID(f)
		}
		if err := alloc.AllocateExact(fibers, w.Interval); err != nil {
			t.Errorf("restored wavelength conflicts with survivors: %v", err)
		}
	}
}

func TestRestoreExtraSparesHelp(t *testing.T) {
	// With a tight detour, extra spares (FlexWAN+) can only help.
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 1600), transponder.SVT(), spectrum.DefaultGrid())
	base := Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}},
	}
	without, err := Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	withSpares := base
	withSpares.ExtraSpares = map[string]int{"e1": 4}
	with, err := Solve(withSpares)
	if err != nil {
		t.Fatal(err)
	}
	if with.RestoredGbps < without.RestoredGbps {
		t.Errorf("extra spares reduced restoration: %d < %d", with.RestoredGbps, without.RestoredGbps)
	}
}

func TestSingleFiberScenarios(t *testing.T) {
	g := ring(t)
	scs := SingleFiberScenarios(g)
	if len(scs) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(scs))
	}
	totalP := 0.0
	seen := map[string]bool{}
	for _, s := range scs {
		if len(s.CutFibers) != 1 {
			t.Errorf("scenario %s cuts %d fibers", s.ID, len(s.CutFibers))
		}
		if seen[s.CutFibers[0]] {
			t.Errorf("fiber %s cut twice", s.CutFibers[0])
		}
		seen[s.CutFibers[0]] = true
		totalP += s.Probability
	}
	if totalP < 0.999 || totalP > 1.001 {
		t.Errorf("probabilities sum to %v", totalP)
	}
}

func TestSweep(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 600), transponder.SVT(), spectrum.DefaultGrid())
	sweep, err := Sweep(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
	}, SingleFiberScenarios(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 3 {
		t.Fatalf("sweep results = %d", len(sweep.Results))
	}
	mc := sweep.MeanCapability()
	if mc < 0 || mc > 1 {
		t.Errorf("mean capability = %v out of range", mc)
	}
	caps := sweep.Capabilities()
	for i := 1; i < len(caps); i++ {
		if caps[i] < caps[i-1] {
			t.Error("Capabilities not sorted")
		}
	}
	for _, s := range sweep.PathStretches() {
		if s <= 0 {
			t.Errorf("nonpositive path stretch %v", s)
		}
	}
}

func TestPlusSpares(t *testing.T) {
	flex := &plan.Result{PerLink: map[string]plan.LinkPlan{
		"e1": {Wavelengths: 2},
		"e2": {Wavelengths: 5},
		"e3": {Wavelengths: 4},
	}}
	baseline := &plan.Result{PerLink: map[string]plan.LinkPlan{
		"e1": {Wavelengths: 6}, // saved 4 → half = 2
		"e2": {Wavelengths: 5}, // saved 0
		// e3 missing from baseline
	}}
	spares := PlusSpares(flex, baseline, 0.5)
	if spares["e1"] != 2 {
		t.Errorf("e1 spares = %d, want 2", spares["e1"])
	}
	if _, ok := spares["e2"]; ok {
		t.Error("e2 should have no spares")
	}
	if _, ok := spares["e3"]; ok {
		t.Error("e3 (missing from baseline) should have no spares")
	}
}

func TestRestoreNilBase(t *testing.T) {
	if _, err := Solve(Problem{}); err == nil {
		t.Error("nil base accepted")
	}
}

func TestMeanCapabilityEmpty(t *testing.T) {
	var s SweepResult
	if s.MeanCapability() != 1 {
		t.Errorf("empty sweep capability = %v, want 1", s.MeanCapability())
	}
}

// TestSolveUnknownCutFiber: a scenario cutting a fiber the topology does
// not have is an error naming the fiber — for the heuristic and the exact
// MIP alike — not a no-op that "restores 0 of 0 Gbps".
func TestSolveUnknownCutFiber(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 400), transponder.SVT(), spectrum.DefaultGrid())
	prob := Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
		Scenario: Scenario{ID: "typo", CutFibers: []string{"f1", "f9"}},
	}
	if _, err := Solve(prob); err == nil || !strings.Contains(err.Error(), `"f9"`) {
		t.Fatalf("Solve: err = %v, want an error naming fiber \"f9\"", err)
	}
	if _, err := SolveExact(prob, solver.Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), `"f9"`) {
		t.Fatalf("SolveExact: err = %v, want an error naming fiber \"f9\"", err)
	}
}
