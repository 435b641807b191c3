package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
)

// TestEngineDifferentialLadder is the end-to-end differential on the real
// planning MIP: across the benchmark scaling ladder, the solver must reach
// the SAME optimal objective (exact float equality — every configuration
// proves optimality, and the acceptance bar for this instance family is
// bitwise-identical objective values) with presolve on and off and at one
// and two branch-and-bound workers. The reported plan is also checked for
// internal consistency: provisioned capacity covers demand.
func TestEngineDifferentialLadder(t *testing.T) {
	ladder := []int{16, 24, 32, 48, 64}
	if testing.Short() {
		ladder = []int{16, 24}
	}
	for _, pixels := range ladder {
		p, err := ExactScalingProblem(pixels)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		haveRef := false
		for _, noPresolve := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("pixels=%d presolve=%v workers=%d", pixels, !noPresolve, workers)
				res, err := plan.SolveExact(p, solver.Options{MaxNodes: 100000, Workers: workers, NoPresolve: noPresolve})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Solver.Status != solver.Optimal {
					t.Fatalf("%s: status %v", label, res.Solver.Status)
				}
				if !haveRef {
					ref, haveRef = res.Solver.Objective, true
				} else if res.Solver.Objective != ref {
					t.Fatalf("%s: objective %v, want %v (configurations diverged)", label, res.Solver.Objective, ref)
				}
				for id, lp := range res.PerLink {
					if lp.ProvisionedGbps < lp.DemandGbps {
						t.Fatalf("%s: link %s provisioned %d < demand %d",
							label, id, lp.ProvisionedGbps, lp.DemandGbps)
					}
				}
			}
		}
	}
}

// TestExactTBackbone solves a full T-backbone instance exactly — all
// clusters, core, and IP links of the synthetic backbone — and checks the
// plan against demand, with no LP solve falling back to the dense
// tableau. Kept at a small grid so it stays a unit test; the benchmark
// ladder runs the bigger ones.
func TestExactTBackbone(t *testing.T) {
	p, err := ExactTBackboneProblem(1, 0.02, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.SolveExact(p, solver.Options{MaxNodes: 200000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != solver.Optimal {
		t.Fatalf("status %v", res.Solver.Status)
	}
	if res.Solver.DenseFallbacks != 0 {
		t.Fatalf("%d LP solves fell back to the dense tableau", res.Solver.DenseFallbacks)
	}
	for id, lp := range res.PerLink {
		if lp.ProvisionedGbps < lp.DemandGbps {
			t.Fatalf("link %s provisioned %d < demand %d", id, lp.ProvisionedGbps, lp.DemandGbps)
		}
	}
}

// TestSolverBenchmarksSmoke runs the benchmark harness at minimal
// iteration counts and checks the record's shape: one point per worker
// count plus one presolve-off point, bytes/op reported nonzero, and the
// warm-start rate omitted exactly on single-node searches.
func TestSolverBenchmarksSmoke(t *testing.T) {
	instances := []SolverBenchInstance{{Name: "exact-planning/pixels=12", Pixels: 12}}
	bench, err := SolverBenchmarks(instances, []int{1, 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Points) != 3 {
		t.Fatalf("%d points, want 3 (workers 1 and 2, presolve off)", len(bench.Points))
	}
	presolveOff := 0
	for _, pt := range bench.Points {
		if !pt.Presolve {
			presolveOff++
			if pt.Workers != 1 {
				t.Fatalf("presolve-off point at workers=%d, want 1", pt.Workers)
			}
		}
		if pt.BytesPerOp <= 0 || math.IsNaN(pt.BytesPerOp) {
			t.Fatalf("point %s workers=%d: BytesPerOp = %v", pt.Instance, pt.Workers, pt.BytesPerOp)
		}
		if pt.Refactorizations == 0 {
			t.Fatalf("point %s workers=%d: Refactorizations = 0", pt.Instance, pt.Workers)
		}
		// A single-node solve has no dives to warm-start: the rate must
		// be omitted (nil), not recorded as a misleading zero.
		if pt.Nodes <= 1 && pt.WarmStartRate != nil {
			t.Fatalf("point %s: nodes=%d but warm_start_rate=%v, want omitted", pt.Instance, pt.Nodes, *pt.WarmStartRate)
		}
		if pt.Nodes > 1 && pt.WarmStartRate == nil {
			t.Fatalf("point %s: nodes=%d but warm_start_rate omitted", pt.Instance, pt.Nodes)
		}
	}
	if presolveOff != 1 {
		t.Fatalf("presolve-off points = %d, want 1 per instance", presolveOff)
	}
	if !strings.Contains(bench.String(), "presolve") {
		t.Fatal("rendered table missing the presolve column")
	}
}

// TestSolverBenchSkipPresolveOff checks the presolve-off ablation is
// skipped on instances marked SkipPresolveOff.
func TestSolverBenchSkipPresolveOff(t *testing.T) {
	instances := []SolverBenchInstance{{Name: "exact-planning/pixels=12", Pixels: 12, SkipPresolveOff: true}}
	bench, err := SolverBenchmarks(instances, []int{1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range bench.Points {
		if !pt.Presolve {
			t.Fatalf("SkipPresolveOff instance produced a presolve-off point: %+v", pt)
		}
	}
}

// TestExactCrossCheckPresolve drives the backend of `flexwan-experiments
// -fig exact [-no-presolve]`: with presolve on and off the exact
// transponder count must be the same and match the heuristic on this
// instance, and only the presolve run may report reductions.
func TestExactCrossCheckPresolve(t *testing.T) {
	var refTx int
	for _, noPresolve := range []bool{false, true} {
		rows, err := ExactCrossCheck([]int{16}, 1, noPresolve)
		if err != nil {
			t.Fatalf("presolve=%v: %v", !noPresolve, err)
		}
		if len(rows) != 1 {
			t.Fatalf("presolve=%v: %d rows, want 1", !noPresolve, len(rows))
		}
		r := rows[0]
		if r.HeuristicTx != r.ExactTx {
			t.Fatalf("presolve=%v: heuristic %d vs exact %d transponders", !noPresolve, r.HeuristicTx, r.ExactTx)
		}
		if !noPresolve {
			refTx = r.ExactTx
			if r.PresolveRows+r.PresolveCols == 0 {
				t.Fatal("presolve on reported no reductions")
			}
		} else {
			if r.ExactTx != refTx {
				t.Fatalf("presolve off: exact tx %d, want %d", r.ExactTx, refTx)
			}
			if r.PresolveRows+r.PresolveCols != 0 {
				t.Fatalf("presolve off reported %d/%d reductions", r.PresolveRows, r.PresolveCols)
			}
		}
	}
}
