package solver_test

import (
	"fmt"
	"testing"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
)

// TestDenseOracleLadder is the engine differential on the real planning
// MIP: across the benchmark scaling ladder, the production configuration
// (revised dual simplex, node presolve on), the dense-tableau oracle, and
// node presolve off must reach the SAME optimal objective — exact float
// equality, the acceptance bar for this instance family — each with
// global presolve on and off. plan.SolveExact passes Options through
// unchanged, so the test-only selectors reach the search. The reported
// plan must also provision capacity covering demand.
func TestDenseOracleLadder(t *testing.T) {
	ladder := []int{16, 24, 32, 48, 64}
	if testing.Short() {
		ladder = []int{16, 24}
	}
	base := solver.Options{MaxNodes: 100000, Workers: 1}
	noPresolve := base
	noPresolve.NoPresolve = true
	cfgs := []struct {
		name string
		opts solver.Options
	}{
		{"production", base},
		{"dense", solver.WithDenseOracle(base)},
		{"no-node-presolve", solver.WithoutNodePresolve(base)},
		{"dense/no-presolve", solver.WithDenseOracle(noPresolve)},
		{"no-presolve/no-node-presolve", solver.WithoutNodePresolve(noPresolve)},
	}
	for _, pixels := range ladder {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i, c := range cfgs {
			label := fmt.Sprintf("pixels=%d %s", pixels, c.name)
			res, err := plan.SolveExact(p, c.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Solver.Status != solver.Optimal {
				t.Fatalf("%s: status %v", label, res.Solver.Status)
			}
			if i == 0 {
				ref = res.Solver.Objective
			} else if res.Solver.Objective != ref {
				t.Fatalf("%s: objective %v, want %v (engines diverged)", label, res.Solver.Objective, ref)
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
