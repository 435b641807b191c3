// Benchmarks regenerating every table and figure of the FlexWAN paper
// (run with `go test -bench=. -benchmem`), plus ablations over the design
// choices called out in DESIGN.md. Custom metrics attach the headline
// result of each experiment to its bench line, so a bench run doubles as
// a summary of the reproduction.
package flexwan_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/eval"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// tb is the shared synthetic backbone; benchmarks must not mutate it.
var tb = workload.TBackbone(1)

func BenchmarkFig2aPathLengths(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		f := eval.Fig2aPathLengthDistribution(tb)
		frac = f.FracUnder200
	}
	b.ReportMetric(frac*100, "%paths<200km")
}

func BenchmarkFig2bMaxRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := eval.Fig2bMaxRateVsDistance()
		if len(f.DistancesKm) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkFig3Provision800G(b *testing.B) {
	var svtAt250 int
	for i := 0; i < b.N; i++ {
		f := eval.Fig3Provision800G()
		svtAt250 = f.SVTTransponders[1]
	}
	b.ReportMetric(float64(svtAt250), "svt-tx@200km")
}

func BenchmarkTable2Testbed(b *testing.B) {
	matched := 0
	for i := 0; i < b.N; i++ {
		rows := eval.Table2TestbedSweep()
		matched = 0
		for _, r := range rows {
			if r.WithinOneSpan {
				matched++
			}
		}
	}
	b.ReportMetric(float64(matched), "rows-within-1-span")
}

// BenchmarkFig12Planning regenerates Fig 12 at each worker count: the
// (scheme, scale) plans are independent and now run through the pool.
func BenchmarkFig12Planning(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var flexMax float64
			for i := 0; i < b.N; i++ {
				f, err := eval.Fig12HardwareVsScale(tb, []float64{1, 2, 3, 4, 5, 6, 7, 8}, workers)
				if err != nil {
					b.Fatal(err)
				}
				flexMax = f.MaxScale["FlexWAN"]
			}
			b.ReportMetric(flexMax, "flexwan-max-scale")
		})
	}
}

func BenchmarkFig13aTopologies(b *testing.B) {
	ce := workload.Cernet(1)
	var medianGap float64
	for i := 0; i < b.N; i++ {
		f := eval.Fig13aWeightedPathLengths(tb, ce)
		medianGap = f.Medians["Cernet"] - f.Medians["T-backbone"]
	}
	b.ReportMetric(medianGap, "median-gap-km")
}

func BenchmarkFig13bTopologyGains(b *testing.B) {
	ce := workload.Cernet(1)
	var tbSaved float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig13bTopologyGains(tb, ce)
		if err != nil {
			b.Fatal(err)
		}
		tbSaved = f.PerNetwork[0].TxSavedVs100G
	}
	b.ReportMetric(tbSaved, "%tx-saved-vs-100G")
}

func BenchmarkFig14aReachGap(b *testing.B) {
	var p90 float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig14WavelengthDistributions(tb)
		if err != nil {
			b.Fatal(err)
		}
		p90 = f.GapKm["FlexWAN"].Percentile(90)
	}
	b.ReportMetric(p90, "flexwan-gap-p90-km")
}

func BenchmarkFig14bSpectralEff(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig14WavelengthDistributions(tb)
		if err != nil {
			b.Fatal(err)
		}
		mean = f.SpectralEff["FlexWAN"].Mean()
	}
	b.ReportMetric(mean, "flexwan-bps-per-hz")
}

func BenchmarkFig15aRestorePathGap(b *testing.B) {
	var fracLonger float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig15aRestoredPathGaps(tb, 0)
		if err != nil {
			b.Fatal(err)
		}
		fracLonger = f.FracLonger
	}
	b.ReportMetric(fracLonger*100, "%restored-longer")
}

// BenchmarkFig15bRestoration regenerates Fig 15b at each worker count so
// a single bench run shows the parallel sweep's wall-clock speedup
// (workers=1 is the sequential path; workers=GOMAXPROCS the full pool).
func BenchmarkFig15bRestoration(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var flexAt5 float64
			for i := 0; i < b.N; i++ {
				f, err := eval.Fig15bRestorationVsScale(tb, []float64{1, 3, 5}, workers)
				if err != nil {
					b.Fatal(err)
				}
				flexAt5 = f.Capability["FlexWAN"][2]
			}
			b.ReportMetric(flexAt5, "flexwan-capability@5x")
		})
	}
}

// BenchmarkSweepWorkers isolates the scenario sweep itself (one plan,
// all 1-fiber cuts at 3× load) across worker counts — the cleanest
// speedup measurement, with no planning time mixed in.
func BenchmarkSweepWorkers(b *testing.B) {
	base, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	prob := restore.Problem{
		Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(), Base: base,
	}
	scs := restore.SingleFiberScenarios(tb.Optical)
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				sweep, err := restore.SweepWithOptions(prob, scs, restore.SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if sweep.Failed() > 0 {
					b.Fatalf("failed scenarios: %v", sweep.FailedIDs())
				}
				mean = sweep.MeanCapability()
			}
			b.ReportMetric(mean, "mean-capability")
		})
	}
}

// benchWorkerCounts is the sweep-parallelism ladder benchmarked above:
// sequential, then doublings up to GOMAXPROCS.
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

func BenchmarkFig16Restoration(b *testing.B) {
	var plusMean float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig16RestorationCDF(tb, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		plusMean = f.Capability["FlexWAN+"].Mean()
	}
	b.ReportMetric(plusMean, "flexwan+-mean-capability")
}

// --- Ablations over DESIGN.md's called-out choices ---

// BenchmarkAblationK varies the number of candidate paths per link.
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(bName("K", k), func(b *testing.B) {
			var tx int
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), K: k,
				})
				if err != nil {
					b.Fatal(err)
				}
				tx = res.Transponders()
			}
			b.ReportMetric(float64(tx), "transponders")
		})
	}
}

// BenchmarkAblationEpsilon varies the spectrum weight in the objective.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.0001, 0.001, 0.01, 0.1} {
		b.Run(bFloat("eps", eps), func(b *testing.B) {
			var ghz float64
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Epsilon: eps,
				})
				if err != nil {
					b.Fatal(err)
				}
				ghz = res.SpectrumGHz()
			}
			b.ReportMetric(ghz, "spectrum-GHz")
		})
	}
}

// BenchmarkAblationPixelGranularity compares the pixel-wise WSS grid with
// finer slicing and with a rigid 75 GHz grid.
func BenchmarkAblationPixelGranularity(b *testing.B) {
	for _, px := range []float64{6.25, 12.5, 25, 75} {
		grid, err := spectrum.NewGrid(px, spectrum.CBandGHz)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bFloat("pixelGHz", px), func(b *testing.B) {
			var ghz float64
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: grid,
				})
				if err != nil {
					b.Fatal(err)
				}
				ghz = float64(res.Allocator.UsedPixels()) * px
			}
			b.ReportMetric(ghz, "fiber-GHz-occupied")
		})
	}
}

// BenchmarkAblationFit compares first-fit and best-fit spectrum placement.
func BenchmarkAblationFit(b *testing.B) {
	for _, fit := range []spectrum.Fit{spectrum.FirstFit, spectrum.BestFit} {
		b.Run(fit.String(), func(b *testing.B) {
			var tx int
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP.Scale(6), Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Fit: fit,
				})
				if err != nil {
					b.Fatal(err)
				}
				tx = res.Transponders()
			}
			b.ReportMetric(float64(tx), "transponders@6x")
		})
	}
}

// BenchmarkAblationPlusFraction varies the FlexWAN+ spare fraction.
func BenchmarkAblationPlusFraction(b *testing.B) {
	base, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	radBase, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.RADWAN(), Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		b.Run(bFloat("frac", frac), func(b *testing.B) {
			spares := restore.PlusSpares(base, radBase, frac)
			var capability float64
			for i := 0; i < b.N; i++ {
				sweep, err := restore.Sweep(restore.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Base: base, ExtraSpares: spares,
				}, restore.SingleFiberScenarios(tb.Optical))
				if err != nil {
					b.Fatal(err)
				}
				capability = sweep.MeanCapability()
			}
			b.ReportMetric(capability, "mean-capability")
		})
	}
}

// BenchmarkHeuristicVsExact reports the heuristic's optimality against
// the full MIP on an instance the branch-and-bound can solve.
func BenchmarkHeuristicVsExact(b *testing.B) {
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, z topology.NodeID
		km   float64
	}{
		{"f1", "A", "B", 100}, {"f2", "B", "C", 400}, {"f3", "A", "C", 450},
	} {
		if err := g.AddFiber(f.id, f.a, f.z, f.km); err != nil {
			b.Fatal(err)
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "B", DemandGbps: 500},
		{ID: "e2", A: "A", B: "C", DemandGbps: 300},
	} {
		if err := ip.AddLink(l); err != nil {
			b.Fatal(err)
		}
	}
	p := plan.Problem{
		Optical: g, IP: ip, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: 24}, K: 2,
	}
	for _, workers := range eval.SolverBenchWorkerCounts() {
		b.Run(bName("solver-workers", workers), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				h, err := plan.Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				e, err := plan.SolveExact(p, solver.Options{MaxNodes: 50000, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				gap = float64(h.Transponders() - e.Transponders())
			}
			b.ReportMetric(gap, "heuristic-minus-exact-tx")
		})
	}
}

// --- Core-primitive micro-benchmarks ---

func BenchmarkKShortestPaths(b *testing.B) {
	nodes := tb.Optical.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := tb.Optical.KShortestPaths(nodes[0], nodes[len(nodes)-1], 4)
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkSpectrumAllocate(b *testing.B) {
	path := []spectrum.FiberID{"a", "b", "c"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := spectrum.NewAllocator(spectrum.DefaultGrid())
		for {
			if _, err := a.Allocate(path, 9, spectrum.FirstFit); err != nil {
				break
			}
		}
	}
}

func BenchmarkPlanHeuristic(b *testing.B) {
	for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
		b.Run(cat.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: cat, Grid: spectrum.DefaultGrid(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := solver.NewModel("bench", solver.Maximize)
		vars := make([]solver.VarID, 40)
		terms := make([]solver.Term, 40)
		for j := range vars {
			vars[j] = m.AddVar("x", 0, 10, float64(1+j%7))
			terms[j] = solver.Term{Var: vars[j], Coef: float64(1 + j%5)}
		}
		if err := m.AddConstraint("cap", terms, solver.LE, 100); err != nil {
			b.Fatal(err)
		}
		if s := m.SolveLP(); s.Status != solver.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

func bName(prefix string, v int) string { return prefix + "=" + itoa(v) }
func bFloat(prefix string, v float64) string {
	return prefix + "=" + trimFloat(v)
}

func itoa(v int) string { return trimFloat(float64(v)) }

func trimFloat(v float64) string {
	s := make([]byte, 0, 8)
	if v < 0 {
		s = append(s, '-')
		v = -v
	}
	whole := int(v)
	s = appendInt(s, whole)
	frac := v - float64(whole)
	if frac > 1e-9 {
		s = append(s, '.')
		for i := 0; i < 4 && frac > 1e-9; i++ {
			frac *= 10
			d := int(frac)
			s = append(s, byte('0'+d))
			frac -= float64(d)
		}
	}
	return string(s)
}

func appendInt(s []byte, v int) []byte {
	if v >= 10 {
		s = appendInt(s, v/10)
	}
	return append(s, byte('0'+v%10))
}

// BenchmarkGNCrossCheck runs the a-priori physics validation of Table 2.
func BenchmarkGNCrossCheck(b *testing.B) {
	var within int
	for i := 0; i < b.N; i++ {
		rows := eval.GNCrossCheck()
		within = 0
		for _, r := range rows {
			if r.Ratio >= 0.3 && r.Ratio <= 8 {
				within++
			}
		}
	}
	b.ReportMetric(float64(within), "formats-within-0.3-8x")
}

// BenchmarkProbabilisticRestoration sweeps sampled multi-fiber failures.
func BenchmarkProbabilisticRestoration(b *testing.B) {
	var flex float64
	for i := 0; i < b.N; i++ {
		f, err := eval.ProbabilisticRestorationSweep(tb, 1, 7, 25, 0.3, 0)
		if err != nil {
			b.Fatal(err)
		}
		flex = f.Capability["FlexWAN"]
	}
	b.ReportMetric(flex, "flexwan-expected-capability")
}

// BenchmarkDefragmentation measures spectrum compaction after churn:
// plan, decommission a third of the links, defragment.
func BenchmarkDefragmentation(b *testing.B) {
	var moves int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := plan.Solve(plan.Problem{
			Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
			Grid: spectrum.DefaultGrid(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, l := range tb.IP.Links {
			if j%3 == 0 {
				if _, err := plan.Decommission(r, l.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		moves, err = plan.Defragment(plan.Problem{
			Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
			Grid: spectrum.DefaultGrid(),
		}, r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(moves), "wavelengths-moved")
}

// BenchmarkIncrementalVsReplan compares growing one link incrementally
// against replanning the whole network — the §9 evolution advantage.
func BenchmarkIncrementalVsReplan(b *testing.B) {
	p := plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
	}
	b.Run("extend-one-link", func(b *testing.B) {
		base, err := plan.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		link := tb.IP.Links[0].ID
		for i := 0; i < b.N; i++ {
			if _, err := plan.Extend(p, base, link, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactScaling shows how the exact MIP's cost grows with the
// spectrum grid (the paper's Gurobi runs take "hours" at production
// size; the heuristic stays near-instant — this bench quantifies the
// gap on solvable instances). The exact solves run once per worker count
// on a fixed ladder so the branch-and-bound speedup is visible on any
// machine; sub-runs also cross-check that the objective is bit-identical
// at every worker count — the determinism contract CI's bench smoke
// enforces.
func BenchmarkExactScaling(b *testing.B) {
	for _, pixels := range []int{16, 20, 24, 32} {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			b.Fatal(err)
		}
		refObjective, haveRef := 0.0, false
		for _, workers := range eval.SolverBenchWorkerCounts() {
			b.Run("exact/pixels="+itoa(pixels)+"/"+bName("workers", workers), func(b *testing.B) {
				var last *plan.Result
				for i := 0; i < b.N; i++ {
					last, err = plan.SolveExact(p, solver.Options{MaxNodes: 100000, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
				}
				// The first sub-run -bench selects sets the reference;
				// every later worker count must match it exactly.
				if !haveRef {
					refObjective, haveRef = last.Solver.Objective, true
				} else if last.Solver.Objective != refObjective {
					b.Fatalf("objective %v at workers=%d differs from reference %v",
						last.Solver.Objective, workers, refObjective)
				}
				b.ReportMetric(float64(last.Solver.Nodes), "bnb-nodes")
				b.ReportMetric(float64(last.Solver.SimplexIters), "simplex-iters")
				if last.Solver.Nodes > 0 {
					b.ReportMetric(float64(last.Solver.WarmStartHits)/float64(last.Solver.Nodes), "warm-hit-rate")
				}
			})
		}
		b.Run("heuristic/pixels="+itoa(pixels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPresolveAblation runs the exact planning MIP with presolve on
// and off on the same instances and cross-checks that the objectives are
// identical — the presolve correctness contract CI's bench smoke
// enforces — while the ns/op contrast shows what the reductions buy.
func BenchmarkPresolveAblation(b *testing.B) {
	for _, pixels := range []int{16, 24} {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			b.Fatal(err)
		}
		refObjective, haveRef := 0.0, false
		for _, noPresolve := range []bool{false, true} {
			name := "exact/pixels=" + itoa(pixels) + "/presolve=on"
			if noPresolve {
				name = "exact/pixels=" + itoa(pixels) + "/presolve=off"
			}
			b.Run(name, func(b *testing.B) {
				var last *plan.Result
				for i := 0; i < b.N; i++ {
					last, err = plan.SolveExact(p, solver.Options{
						MaxNodes: 100000, Workers: 1, NoPresolve: noPresolve,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if !haveRef {
					refObjective, haveRef = last.Solver.Objective, true
				} else if last.Solver.Objective != refObjective {
					b.Fatalf("objective %v with presolve=%v differs from reference %v",
						last.Solver.Objective, !noPresolve, refObjective)
				}
				b.ReportMetric(float64(last.Solver.SimplexIters), "simplex-iters")
				b.ReportMetric(float64(last.Solver.PresolveRows), "presolve-rows")
				b.ReportMetric(float64(last.Solver.PresolveCols), "presolve-cols")
			})
		}
	}
}

// BenchmarkSolverMemoryBudget enforces a per-instance bytes/op budget on
// the default (revised simplex) exact solve — the memory regression
// guard CI's bench smoke runs. The budgets sit roughly 2x above the
// measured revised-engine allocation and well under half the dense
// tableau's (≈1.1 MB/op at 32 pixels, ≈4.5 MB/op at 64), so either an
// engine regression or a fall-back to the dense path on every solve trips
// them. TotalAlloc deltas are read directly because the testing
// framework's own B/op is not visible from inside the benchmark.
func BenchmarkSolverMemoryBudget(b *testing.B) {
	budgets := []struct {
		pixels int
		bytes  float64
	}{{16, 300_000}, {32, 700_000}, {64, 1_700_000}}
	for _, bu := range budgets {
		b.Run("exact/pixels="+itoa(bu.pixels), func(b *testing.B) {
			p, err := eval.ExactScalingProblem(bu.pixels)
			if err != nil {
				b.Fatal(err)
			}
			opts := solver.Options{MaxNodes: 100000, Workers: 1}
			if _, err := plan.SolveExact(p, opts); err != nil { // warm-up
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveExact(p, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			b.ReportMetric(perOp, "bytes/op-measured")
			if perOp > bu.bytes {
				b.Fatalf("pixels=%d: %.0f bytes/op exceeds budget %.0f", bu.pixels, perOp, bu.bytes)
			}
		})
	}
}

// BenchmarkExactRegressionGuard fails if the exact solve at pixels=64
// (one worker, presolve on) regresses more than 25%
// against the committed BENCH_solver.json baseline — the performance
// contract CI's bench smoke enforces. Machines differ, so the budget is
// calibrated: the pixels=16 point from the same baseline is re-measured
// here and the 64-pixel budget scaled by how much slower this machine is
// (never scaled down — a faster machine still has to beat the absolute
// bar). Min-of-3 timing on both points keeps scheduler noise out of the
// verdict. Skips when no baseline is committed.
func BenchmarkExactRegressionGuard(b *testing.B) {
	raw, err := os.ReadFile("BENCH_solver.json")
	if err != nil {
		b.Skipf("no committed baseline: %v", err)
	}
	var baseline eval.SolverBench
	if err := json.Unmarshal(raw, &baseline); err != nil {
		b.Fatalf("BENCH_solver.json: %v", err)
	}
	find := func(instance string) *eval.SolverBenchPoint {
		for i, pt := range baseline.Points {
			if pt.Instance == instance && pt.Workers == 1 && pt.Presolve {
				return &baseline.Points[i]
			}
		}
		b.Fatalf("BENCH_solver.json has no workers=1 presolve-on point for %s", instance)
		return nil
	}
	base16 := find("exact-planning/pixels=16")
	base64 := find("exact-planning/pixels=64")
	opts := solver.Options{MaxNodes: 100000, Workers: 1}
	problem := func(pixels int) plan.Problem {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.SolveExact(p, opts); err != nil { // warm-up
			b.Fatal(err)
		}
		return p
	}
	p16, p64 := problem(16), problem(64)
	timeOnce := func(p plan.Problem) float64 {
		start := time.Now()
		if _, err := plan.SolveExact(p, opts); err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	// The calibration and the guarded measurement run interleaved, with a
	// GC ahead of each round, so both points see the same heap and
	// scheduler conditions — measuring them back-to-back let GC debt from
	// earlier benchmarks in the same process land on one side only.
	best16, got := math.Inf(1), math.Inf(1)
	for r := 0; r < 4; r++ {
		runtime.GC()
		if ns := timeOnce(p16); ns < best16 {
			best16 = ns
		}
		if ns := timeOnce(p64); ns < got {
			got = ns
		}
	}
	scale := best16 / base16.NsPerOp
	if scale < 1 {
		scale = 1
	}
	budget := base64.NsPerOp * scale * 1.25
	b.ReportMetric(got/base64.NsPerOp, "x-vs-baseline")
	b.ReportMetric(scale, "machine-scale")
	if got > budget {
		b.Fatalf("exact solve at pixels=64 took %.0f ns, budget %.0f ns (baseline %.0f x machine scale %.2f x 1.25)",
			got, budget, base64.NsPerOp, scale)
	}
}

// BenchmarkDegeneracyWallGuard re-solves the degeneracy-wall instance —
// the full T-backbone at 32 pixels with three candidate paths per link,
// the instance an unweighted (Dantzig-priced) dual simplex stalls on
// outright — and fails if the devex-priced solve regresses past a
// pivot-count budget of 1.5x the committed BENCH_solver.json baseline,
// or stops proving optimality, or lands on a different objective. Pivot counts (unlike wall-clock) are
// deterministic at one worker, so the budget needs no machine
// calibration; the 1.5x slack absorbs legitimate future pivot-path
// changes without letting the instance drift back toward the wall. Skips
// when the committed baseline predates the wall instance.
func BenchmarkDegeneracyWallGuard(b *testing.B) {
	const instance = "exact-tbackbone/pixels=32,scale=0.02,k=3"
	raw, err := os.ReadFile("BENCH_solver.json")
	if err != nil {
		b.Skipf("no committed baseline: %v", err)
	}
	var baseline eval.SolverBench
	if err := json.Unmarshal(raw, &baseline); err != nil {
		b.Fatalf("BENCH_solver.json: %v", err)
	}
	var base *eval.SolverBenchPoint
	for i, pt := range baseline.Points {
		if pt.Instance == instance && pt.Workers == 1 && pt.Presolve {
			base = &baseline.Points[i]
			break
		}
	}
	if base == nil {
		b.Skipf("committed BENCH_solver.json has no %s point", instance)
	}
	p, err := eval.ExactTBackboneProblem(1, 0.02, 32, 3)
	if err != nil {
		b.Fatal(err)
	}
	res, err := plan.SolveExact(p, solver.Options{MaxNodes: 100000, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if res.Solver.Status != solver.Optimal {
		b.Fatalf("wall instance no longer proves optimality: status %v", res.Solver.Status)
	}
	if res.Solver.Objective != base.Objective {
		b.Fatalf("wall instance objective %v differs from baseline %v", res.Solver.Objective, base.Objective)
	}
	budget := base.SimplexIters * 3 / 2
	b.ReportMetric(float64(res.Solver.SimplexIters), "pivots")
	b.ReportMetric(float64(res.Solver.SimplexIters)/float64(base.SimplexIters), "x-vs-baseline")
	if res.Solver.SimplexIters > budget {
		b.Fatalf("wall instance took %d pivots, budget %d (baseline %d x 1.5)",
			res.Solver.SimplexIters, budget, base.SimplexIters)
	}
}

// BenchmarkNetconfRPC measures management-protocol round-trip throughput
// (one get-state per iteration against a live transponder agent).
func BenchmarkNetconfRPC(b *testing.B) {
	fabric := device.NewFabric(phy.DefaultLink())
	if err := fabric.AddFiber("f1", 600); err != nil {
		b.Fatal(err)
	}
	agent := device.NewTransponder(devmodel.Descriptor{
		ID: "bench-tx", Class: devmodel.ClassTransponder, Vendor: "v", Address: "x", Site: "A",
	}, spectrum.DefaultGrid(), transponder.SVT(), fabric)
	addr, err := agent.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	c, err := netconf.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := agent.Configure(devmodel.TransponderConfig{
		Enabled: true, DataRateGbps: 600, SpacingGHz: 150,
		IntervalStart: 0, IntervalCount: 12, PathFibers: []string{"f1"}, Channel: "b:1",
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st devmodel.TransponderState
		if err := c.Call(netconf.OpGetState, nil, &st); err != nil {
			b.Fatal(err)
		}
	}
}
