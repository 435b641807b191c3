package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// ExactScalingProblem builds the seed exact-planning instance used by
// BenchmarkExactScaling and the `bench` experiment mode: a two-fiber line
// A—B—C with two IP links on the RADWAN catalog over a pixels-wide grid.
// More pixels means more starting-pixel γ variables, hence a harder MIP.
// The instance grows roughly six variables per pixel, so the whole
// benchmark ladder (up to 128 pixels) sits far below the build cap
// (solver.DefaultMaxVars).
func ExactScalingProblem(pixels int) (plan.Problem, error) {
	g := topology.New()
	if err := g.AddFiber("f1", "A", "B", 100); err != nil {
		return plan.Problem{}, err
	}
	if err := g.AddFiber("f2", "B", "C", 400); err != nil {
		return plan.Problem{}, err
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "B", DemandGbps: 300},
		{ID: "e2", A: "A", B: "C", DemandGbps: 200},
	} {
		if err := ip.AddLink(l); err != nil {
			return plan.Problem{}, err
		}
	}
	return plan.Problem{
		Optical: g, IP: ip, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}, K: 1,
	}, nil
}

// ExactTBackboneProblem builds a full-T-backbone exact-planning instance:
// the complete synthetic backbone of workload.TBackbone(seed) — all eight
// metro clusters, the long-haul core, and every IP link — with demands
// multiplied by scale so the wavelength count per link stays within exact
// reach, on a pixels-wide RADWAN grid with K candidate paths per link.
// Unlike the two-link ExactScalingProblem line, the MIP here carries the
// real topology's structure: shared metro fibers, long-haul transit, and
// per-fiber conflict rows across 36 fibers.
func ExactTBackboneProblem(seed int64, scale float64, pixels, k int) (plan.Problem, error) {
	n := workload.TBackbone(seed).Scale(scale)
	return plan.Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}, K: k,
	}, nil
}

// SolverBenchInstance names one exact-planning instance of the benchmark
// ladder. Line instances are ExactScalingProblem at Pixels; T-backbone
// instances (TBackbone true) are ExactTBackboneProblem at Scale, Pixels,
// and K candidate paths. SkipPresolveOff marks instances whose LP bound
// is useless without the presolve coefficient tightening — the
// presolve-off ablation would exhaust the node budget with no incumbent
// instead of measuring anything.
type SolverBenchInstance struct {
	Name            string
	Pixels          int
	TBackbone       bool
	Scale           float64
	K               int
	SkipPresolveOff bool
}

// Problem builds the instance.
func (si SolverBenchInstance) Problem() (plan.Problem, error) {
	if si.TBackbone {
		k := si.K
		if k <= 0 {
			k = 1
		}
		return ExactTBackboneProblem(1, si.Scale, si.Pixels, k)
	}
	return ExactScalingProblem(si.Pixels)
}

// DefaultSolverBenchInstances is the ladder recorded in BENCH_solver.json:
// the two-link line from 16 to 128 pixels, then full T-backbone instances
// — the complete synthetic backbone (36 fibers, 38 IP links) at demand
// scale 0.02, once at 32 pixels with the single shortest path per link and
// at 24 and 32 pixels with three candidate paths (the k=3 spectrum
// packing; 32 pixels is the degeneracy wall, see DESIGN.md).
func DefaultSolverBenchInstances() []SolverBenchInstance {
	out := []SolverBenchInstance{}
	for _, px := range []int{16, 20, 24, 32, 48, 64, 96, 128} {
		out = append(out, SolverBenchInstance{
			Name: fmt.Sprintf("exact-planning/pixels=%d", px), Pixels: px,
		})
	}
	for _, ti := range []SolverBenchInstance{
		{Pixels: 32, Scale: 0.02, K: 1},
		{Pixels: 24, Scale: 0.02, K: 3},
		// The degeneracy wall: the start-pixel symmetries at this width
		// stall an unweighted dual simplex; devex pricing walks through
		// it (see DESIGN.md), which is why this instance is in the
		// ladder at all.
		{Pixels: 32, Scale: 0.02, K: 3},
	} {
		ti.Name = fmt.Sprintf("exact-tbackbone/pixels=%d,scale=%g,k=%d", ti.Pixels, ti.Scale, ti.K)
		ti.TBackbone = true
		ti.SkipPresolveOff = true // without coefficient tightening the LP bound prunes nothing
		out = append(out, ti)
	}
	return out
}

// SolverBenchWorkerCounts is the fixed worker ladder benchmarked and
// recorded in BENCH_solver.json: 1, 2, 4, plus GOMAXPROCS when the
// machine has more cores. Fixed (rather than derived from the local core
// count) so results from different machines stay comparable.
func SolverBenchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	return counts
}

// SolverBenchPoint is one (instance, worker-count, presolve) measurement
// of the production solver configuration. GoMaxProcs is the effective
// GOMAXPROCS the sub-run executed under — pinned to at least Workers so
// worker-scaling points are honest measurements rather than time-sliced
// onto fewer threads than the sweep claims. WarmStartRate is nil — not a
// misleading 0 — when the search never left the root node (Nodes <= 1:
// there are no dives whose warm starts could hit or miss). The LU-health
// block (refactorizations through np_fixings) comes from the solver's
// SolveStats.
type SolverBenchPoint struct {
	Instance         string   `json:"instance"`
	Pixels           int      `json:"pixels"`
	Workers          int      `json:"workers"`
	GoMaxProcs       int      `json:"gomaxprocs"`
	Presolve         bool     `json:"presolve"`
	PresolveRows     int      `json:"presolve_rows"`
	PresolveCols     int      `json:"presolve_cols"`
	Iterations       int      `json:"iterations"`
	NsPerOp          float64  `json:"ns_per_op"`
	AllocsPerOp      float64  `json:"allocs_per_op"`
	BytesPerOp       float64  `json:"bytes_per_op"`
	Objective        float64  `json:"objective"`
	Nodes            int      `json:"nodes"`
	SimplexIters     int      `json:"simplex_iters"`
	PivotsPerSec     float64  `json:"pivots_per_sec"`
	BoundFlips       int      `json:"bound_flips"`
	WeightResets     int      `json:"weight_resets"`
	WarmStartHits    int      `json:"warm_start_hits"`
	WarmStartRate    *float64 `json:"warm_start_rate,omitempty"`
	Refactorizations int      `json:"refactorizations"`
	BasisUpdates     int      `json:"basis_updates"`
	PeakUFill        int      `json:"peak_u_fill"`
	DenseFallbacks   int      `json:"dense_fallbacks"`
	NPFixings        int      `json:"np_fixings"`
	SpeedupVs1       float64  `json:"speedup_vs_1"`
}

// SolverBench is the headline solver benchmark record, serialized to
// BENCH_solver.json by `flexwan-experiments -fig bench`.
type SolverBench struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	Workers    []int              `json:"worker_counts"`
	Points     []SolverBenchPoint `json:"points"`
}

// SolverBenchmarks times the exact planning MIP on the given instance
// ladder at each worker count, plus one presolve-off ablation point per
// instance at one worker (skipped on instances marked SkipPresolveOff).
// Each point runs until both minIters iterations and minTime have
// elapsed (a hand-rolled testing.B: the experiment binary cannot import
// package testing). Every sub-run is pinned to GOMAXPROCS ≥ workers and
// the effective value is recorded per point; a point with more workers
// than the host has CPUs is time-sliced, not parallel. It verifies the
// objective is identical across every point of an instance — the
// determinism contract, presolve included — and returns an error if
// not. Speedups are relative to one worker.
func SolverBenchmarks(instances []SolverBenchInstance, workerCounts []int, minIters int, minTime time.Duration) (SolverBench, error) {
	if minIters < 1 {
		minIters = 1
	}
	base := runtime.GOMAXPROCS(0)
	out := SolverBench{GoMaxProcs: base, Workers: workerCounts}
	for _, inst := range instances {
		p, err := inst.Problem()
		if err != nil {
			return SolverBench{}, err
		}
		instance := inst.Name
		pixels := inst.Pixels
		refObjective, haveRef := 0.0, false

		measure := func(workers int, noPresolve bool) (SolverBenchPoint, error) {
			opts := solver.Options{MaxNodes: 100000, Workers: workers, NoPresolve: noPresolve}
			label := fmt.Sprintf("%s workers=%d presolve=%v", instance, workers, !noPresolve)
			eff := base
			if workers > eff {
				runtime.GOMAXPROCS(workers)
				eff = workers
				defer runtime.GOMAXPROCS(base)
			}
			// Warm-up solve: page in the instance and the scratch
			// pools, and capture the objective for the determinism
			// check.
			warm, err := plan.SolveExact(p, opts)
			if err != nil {
				return SolverBenchPoint{}, fmt.Errorf("eval: %s: %w", label, err)
			}
			if !haveRef {
				refObjective, haveRef = warm.Solver.Objective, true
			} else if warm.Solver.Objective != refObjective {
				return SolverBenchPoint{}, fmt.Errorf("eval: %s objective diverged: got %v, want %v (workers=%d presolve on)",
					label, warm.Solver.Objective, refObjective, workerCounts[0])
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			iters := 0
			var last *plan.Result
			for iters < minIters || time.Since(start) < minTime {
				last, err = plan.SolveExact(p, opts)
				if err != nil {
					return SolverBenchPoint{}, fmt.Errorf("eval: %s: %w", label, err)
				}
				iters++
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)

			pt := SolverBenchPoint{
				Instance:         instance,
				Pixels:           pixels,
				Workers:          workers,
				GoMaxProcs:       eff,
				Presolve:         !noPresolve,
				PresolveRows:     last.Solver.PresolveRows,
				PresolveCols:     last.Solver.PresolveCols,
				Iterations:       iters,
				NsPerOp:          float64(elapsed.Nanoseconds()) / float64(iters),
				AllocsPerOp:      float64(after.Mallocs-before.Mallocs) / float64(iters),
				BytesPerOp:       float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
				Objective:        last.Solver.Objective,
				Nodes:            last.Solver.Nodes,
				SimplexIters:     last.Solver.SimplexIters,
				BoundFlips:       last.Solver.BoundFlips,
				WeightResets:     last.Solver.WeightResets,
				WarmStartHits:    last.Solver.WarmStartHits,
				Refactorizations: last.Solver.Refactorizations,
				BasisUpdates:     last.Solver.BasisUpdates,
				PeakUFill:        last.Solver.PeakUFill,
				DenseFallbacks:   last.Solver.DenseFallbacks,
				NPFixings:        last.Solver.NodePresolveFixings,
			}
			if pt.NsPerOp > 0 {
				pt.PivotsPerSec = float64(pt.SimplexIters) / (pt.NsPerOp / 1e9)
			}
			// A single-node search never dives, so a warm-start rate is
			// undefined there — omitted rather than recorded as 0.
			if pt.Nodes > 1 {
				rate := float64(pt.WarmStartHits) / float64(pt.Nodes)
				pt.WarmStartRate = &rate
			}
			return pt, nil
		}

		var nsAt1 float64
		for _, workers := range workerCounts {
			pt, err := measure(workers, false)
			if err != nil {
				return SolverBench{}, err
			}
			if workers == 1 {
				nsAt1 = pt.NsPerOp
			}
			if nsAt1 > 0 {
				pt.SpeedupVs1 = nsAt1 / pt.NsPerOp
			}
			out.Points = append(out.Points, pt)
		}
		// Presolve off, at one worker so the pair against the matching
		// default point isolates exactly one change. Objective identity is
		// enforced by measure.
		if !inst.SkipPresolveOff {
			pt, err := measure(1, true)
			if err != nil {
				return SolverBench{}, err
			}
			pt.SpeedupVs1 = 1
			out.Points = append(out.Points, pt)
		}
	}
	return out, nil
}

func (s SolverBench) String() string {
	header := []string{"instance", "workers", "gmp", "presolve", "rows-/cols-", "iters", "ns/op", "nodes", "pivots", "pivots/s", "flips", "wreset", "refac", "updates", "fill", "fb", "npfix", "warm%", "speedup"}
	rows := make([][]string, len(s.Points))
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	for i, pt := range s.Points {
		warm := "n/a"
		if pt.WarmStartRate != nil {
			warm = fmt.Sprintf("%.0f%%", 100**pt.WarmStartRate)
		}
		rows[i] = []string{
			pt.Instance,
			fmt.Sprintf("%d", pt.Workers),
			fmt.Sprintf("%d", pt.GoMaxProcs),
			onOff(pt.Presolve),
			fmt.Sprintf("%d/%d", pt.PresolveRows, pt.PresolveCols),
			fmt.Sprintf("%d", pt.Iterations),
			fmt.Sprintf("%.0f", pt.NsPerOp),
			fmt.Sprintf("%d", pt.Nodes),
			fmt.Sprintf("%d", pt.SimplexIters),
			fmt.Sprintf("%.0f", pt.PivotsPerSec),
			fmt.Sprintf("%d", pt.BoundFlips),
			fmt.Sprintf("%d", pt.WeightResets),
			fmt.Sprintf("%d", pt.Refactorizations),
			fmt.Sprintf("%d", pt.BasisUpdates),
			fmt.Sprintf("%d", pt.PeakUFill),
			fmt.Sprintf("%d", pt.DenseFallbacks),
			fmt.Sprintf("%d", pt.NPFixings),
			warm,
			fmt.Sprintf("%.2fx", pt.SpeedupVs1),
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Solver benchmarks (GOMAXPROCS=%d)\n", s.GoMaxProcs)
	b.WriteString(renderTable(header, rows))
	return b.String()
}

// ExactCheck is one row of the exact-vs-heuristic cross-check.
type ExactCheck struct {
	Instance     string
	HeuristicTx  int
	ExactTx      int
	ExactNodes   int
	ExactWorkers int
	ExactGap     float64
	SimplexIters int
	WarmHits     int
	PresolveRows int
	PresolveCols int
}

// ExactCrossCheck solves the scaling instances both heuristically and
// exactly (with the given solver worker count and presolve setting) and
// reports transponder counts side by side — the planning-quality check
// behind Fig 12's claim that the heuristic tracks the optimum.
func ExactCrossCheck(pixelSizes []int, solverWorkers int, noPresolve bool) ([]ExactCheck, error) {
	var out []ExactCheck
	for _, pixels := range pixelSizes {
		p, err := ExactScalingProblem(pixels)
		if err != nil {
			return nil, err
		}
		h, err := plan.Solve(p)
		if err != nil {
			return nil, err
		}
		e, err := plan.SolveExact(p, solver.Options{MaxNodes: 100000, Workers: solverWorkers, NoPresolve: noPresolve})
		if err != nil {
			return nil, err
		}
		out = append(out, ExactCheck{
			Instance:     fmt.Sprintf("exact-planning/pixels=%d", pixels),
			HeuristicTx:  h.Transponders(),
			ExactTx:      e.Transponders(),
			ExactNodes:   e.Solver.Nodes,
			ExactWorkers: e.Solver.Workers,
			ExactGap:     e.Solver.Gap,
			SimplexIters: e.Solver.SimplexIters,
			WarmHits:     e.Solver.WarmStartHits,
			PresolveRows: e.Solver.PresolveRows,
			PresolveCols: e.Solver.PresolveCols,
		})
	}
	return out, nil
}

// ExactCheckString renders the cross-check rows.
func ExactCheckString(rows []ExactCheck) string {
	header := []string{"instance", "heuristic tx", "exact tx", "nodes", "workers", "pivots", "warm hits", "rows-/cols-", "gap"}
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Instance,
			fmt.Sprintf("%d", r.HeuristicTx),
			fmt.Sprintf("%d", r.ExactTx),
			fmt.Sprintf("%d", r.ExactNodes),
			fmt.Sprintf("%d", r.ExactWorkers),
			fmt.Sprintf("%d", r.SimplexIters),
			fmt.Sprintf("%d", r.WarmHits),
			fmt.Sprintf("%d/%d", r.PresolveRows, r.PresolveCols),
			fmt.Sprintf("%.2g", r.ExactGap),
		}
	}
	return "Exact vs heuristic planning cross-check\n" + renderTable(header, table)
}
