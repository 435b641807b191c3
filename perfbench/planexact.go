package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
)

// The plan-exact instances. The main one is the full T-backbone at 32
// pixels and one candidate path: search-bound (96 nodes, 2 813 pivots).
// The side one is the 256-pixel line instance of the solver ladder:
// one node and six pivots, so its time is model build and presolve.
//
// Both are fixed rather than drawn from --seed. T-backbone geometries
// differ up to 60× in solve time (seed 2 runs 40 s, seed 11 is
// infeasible, the others up to 20 take 0.67–2.4 s), so a seeded instance
// would make the solve time of two runs differ by more than any
// regression worth catching. The seed instead sets how many side solves
// follow each main one.
const (
	planTBSeed      = 1
	planTBScale     = 0.02
	planTBPixels    = 32
	planTBK         = 1
	planLinePixels  = 256
	planSidePerMain = 8
	planSetups      = 3
	// The proven optimal objectives of the two instances; a solve that
	// returns another value is wrong whatever its status says.
	planTBObjective   = 40.85
	planLineObjective = 2.15
)

func runPlanExact(cfg config) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(cfg.trace)
	opts := solver.Options{Workers: 1}

	// Set-up: build both instances and solve each once. The first solves
	// warm the heap and give the reference every timed solve must match.
	var (
		tbProb, lineProb  plan.Problem
		tbRef, lineRef    *plan.Result
		setups, setupWall []float64
	)
	for i := 0; i < planSetups; i++ {
		c0, t0 := processCPU(), time.Now()
		var err error
		if tbProb, err = eval.ExactTBackboneProblem(planTBSeed, planTBScale, planTBPixels, planTBK); err != nil {
			return nil, err
		}
		if lineProb, err = eval.ExactScalingProblem(planLinePixels); err != nil {
			return nil, err
		}
		if tbRef, err = solveChecked(tbProb, opts, planTBObjective); err != nil {
			return nil, fmt.Errorf("reference T-backbone solve: %w", err)
		}
		if lineRef, err = solveChecked(lineProb, opts, planLineObjective); err != nil {
			return nil, fmt.Errorf("reference line solve: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.facts["setup_wall_s"] = median(setupWall)

	var (
		mainMs, sideMs       []float64
		mainCPU              []float64
		last                 *plan.Result
		tracedMs, untracedMs []float64
		allocMB, allocs      []float64
		ref                  = tbRef.Solver
		deadline             = time.Now().Add(cfg.seconds)
		order                = rand.New(rand.NewSource(cfg.seed))
	)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := i%2 == 0
		if err := tr.setOn(traced); err != nil {
			return nil, err
		}
		var before runtime.MemStats
		if cfg.trace {
			runtime.ReadMemStats(&before)
		}
		id := tr.begin("plan.SolveExact", -1)
		c0, t0 := processCPU(), time.Now()
		res, err := plan.SolveExact(tbProb, opts)
		lat, cpu := msOf(time.Since(t0)), msOf(processCPU()-c0)
		tr.end(id)
		if err := tr.setOn(false); err != nil {
			return nil, err
		}
		out.attempted++
		if cfg.trace {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
		if cerr := checkSolve(tbProb, res, err, ref); cerr != nil {
			out.mismatch("T-backbone solve %d: %v", i, cerr)
			continue
		}
		mainMs = append(mainMs, lat)
		mainCPU = append(mainCPU, cpu)
		last = res
		if traced {
			tracedMs = append(tracedMs, lat)
		} else {
			untracedMs = append(untracedMs, lat)
		}

		// Side solves: a seeded count around planSidePerMain keeps the two
		// kinds interleaved without a fixed phase.
		n := planSidePerMain/2 + order.Intn(planSidePerMain+1)
		for j := 0; j < n; j++ {
			t0 := time.Now()
			res, err := plan.SolveExact(lineProb, opts)
			lat := msOf(time.Since(t0))
			out.attempted++
			if cerr := checkSolve(lineProb, res, err, lineRef.Solver); cerr != nil {
				out.mismatch("line solve: %v", cerr)
				continue
			}
			sideMs = append(sideMs, lat)
		}
	}
	out.e2e["cpu_ms_per_op"] = median(mainCPU)
	out.layer["plan_solve_s"] = median(mainMs) / 1000
	out.layer["line_solve_ms_p50"] = median(sideMs)
	// The live heap while the problem and the last plan are still held,
	// as a planner holds them between solves.
	out.e2e["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(tbProb)
	runtime.KeepAlive(last)
	out.facts["main_solves"] = len(mainMs)
	out.facts["side_solves"] = len(sideMs)
	out.facts["objective"] = ref.Objective
	out.facts["nodes"] = ref.Nodes
	out.facts["pivots"] = ref.SimplexIters

	if !cfg.trace {
		return out, nil
	}
	if err := tr.finish(); err != nil {
		return nil, err
	}
	l := out.layer
	l["solver.nodes"] = float64(ref.Nodes)
	l["solver.pivots"] = float64(ref.SimplexIters)
	l["solver.pivots_per_s"] = float64(ref.SimplexIters) / (median(untracedMs) / 1000)
	l["solver.refactorizations"] = float64(ref.Refactorizations)
	l["solver.ftran"] = float64(ref.FTRANCount)
	l["solver.btran"] = float64(ref.BTRANCount)
	l["solver.bound_flips"] = float64(ref.BoundFlips)
	if ref.Nodes > 0 {
		l["solver.warm_start_rate"] = float64(ref.WarmStartHits) / float64(ref.Nodes)
	}
	l["solver.presolve_rows"] = float64(ref.PresolveRows)
	l["solver.presolve_cols"] = float64(ref.PresolveCols)
	l["solver.dense_fallbacks"] = float64(ref.DenseFallbacks)
	l["solver.alloc_mb_per_solve"] = median(allocMB)
	l["solver.allocs_per_solve"] = median(allocs)
	l["solver.lu_share"] = tr.cpu.share("lu")
	l["solver.pricing_share"] = tr.cpu.share("pricing")
	l["solver.presolve_share"] = tr.cpu.share("presolve")
	l["plan.build_share"] = tr.cpu.share("plan.build")
	l["runtime.gc_share"] = tr.cpu.share("gc")
	l["trace.overhead_ms"] = overhead(tracedMs, untracedMs)
	return out, nil
}

// solveChecked solves once and checks the result on its own: optimal,
// verified, and at the known optimal objective.
func solveChecked(p plan.Problem, opts solver.Options, objective float64) (*plan.Result, error) {
	res, err := plan.SolveExact(p, opts)
	if err := checkSolve(p, res, err, nil); err != nil {
		return nil, err
	}
	if math.Abs(res.Solver.Objective-objective) > 1e-9 {
		return nil, fmt.Errorf("objective %v, want %v", res.Solver.Objective, objective)
	}
	return res, nil
}

// checkSolve: the solve proved optimality, the plan passes plan.Verify,
// and — given a reference — objective, node and pivot counts are
// identical to it (one worker is deterministic).
func checkSolve(p plan.Problem, res *plan.Result, err error, ref *plan.SolveStats) error {
	if err != nil {
		return err
	}
	if res.Solver == nil || res.Solver.Status != solver.Optimal {
		return fmt.Errorf("status %v, want optimal", res.Solver)
	}
	if err := plan.Verify(p, res); err != nil {
		return fmt.Errorf("plan.Verify: %w", err)
	}
	if ref == nil {
		return nil
	}
	got := res.Solver
	if got.Objective != ref.Objective || got.Nodes != ref.Nodes || got.SimplexIters != ref.SimplexIters {
		return fmt.Errorf("objective %v nodes %d pivots %d, reference %v / %d / %d",
			got.Objective, got.Nodes, got.SimplexIters, ref.Objective, ref.Nodes, ref.SimplexIters)
	}
	return nil
}
