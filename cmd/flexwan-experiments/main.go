// Command flexwan-experiments regenerates every table and figure of the
// FlexWAN paper's motivation and evaluation sections from this
// reproduction. Output is the same rows/series the paper plots; compare
// shapes against EXPERIMENTS.md.
//
// Usage:
//
//	flexwan-experiments                 # run everything
//	flexwan-experiments -fig 12,16      # selected figures
//	flexwan-experiments -seed 7         # different synthetic T-backbone
//	flexwan-experiments -workers 8      # sweep parallelism
//	                                      (0 = all cores, 1 = sequential)
//	flexwan-experiments -fig exact -solver-workers 4
//	                                    # exact cross-check, parallel B&B
//	flexwan-experiments -fig exact -no-presolve
//	                                    # presolve ablation
//	flexwan-experiments -fig bench      # solver benchmarks → BENCH_solver.json
//	flexwan-experiments -fig bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                    # profile any mode with pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"flexwan/internal/eval"
	"flexwan/internal/workload"
)

func main() {
	figFlag := flag.String("fig", "all", "comma-separated figures to run: 2a,2b,3,table2,gn,12,13a,13b,14,15a,15b,16,prob,headline,exact or 'all'; 'bench' runs solver benchmarks (never part of 'all')")
	seed := flag.Int64("seed", 1, "random seed for the synthetic T-backbone")
	csvDir := flag.String("csv", "", "also write plotting-ready CSV files into this directory")
	workers := flag.Int("workers", 0, "concurrent scenario/plan solves per sweep (0 = all cores, 1 = sequential)")
	solverWorkers := flag.Int("solver-workers", 0, "branch-and-bound workers per exact MIP solve (0 = all cores)")
	noPresolve := flag.Bool("no-presolve", false, "disable the presolve reductions in the 'exact' mode ('bench' always records both)")
	benchOut := flag.String("bench-out", "BENCH_solver.json", "output path for the 'bench' mode record")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (captured at exit, after a GC) to this file")
	flag.Parse()

	want := map[string]bool{}
	for _, f := range strings.Split(*figFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	tb := workload.TBackbone(*seed)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
		stopProfiles()
		os.Exit(1)
	}
	writeCSV := func(name string, data eval.CSVData) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		if err := eval.WriteCSV(f, data); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	if run("2a") {
		f := eval.Fig2aPathLengthDistribution(tb)
		fmt.Println(f)
		writeCSV("fig2a.csv", f)
	}
	if run("2b") {
		f := eval.Fig2bMaxRateVsDistance()
		fmt.Println(f)
		writeCSV("fig2b.csv", f)
	}
	if run("3") {
		f := eval.Fig3Provision800G()
		fmt.Println(f)
		writeCSV("fig3.csv", f)
	}
	if run("table2") || run("11") {
		rows := eval.Table2TestbedSweep()
		fmt.Println(eval.Table2String(rows))
		writeCSV("table2.csv", eval.Table2CSV(rows))
	}
	if run("gn") {
		rows := eval.GNCrossCheck()
		fmt.Println(eval.GNCheckString(rows))
		writeCSV("gncheck.csv", eval.GNCheckCSV(rows))
		r, err := eval.ReachSensitivityStudy(tb)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}
	if run("12") {
		f, err := eval.Fig12HardwareVsScale(tb, []float64{1, 2, 3, 4, 5, 6, 7, 8}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig12.csv", f)
	}
	if run("headline") || run("12") {
		s, err := eval.HeadlineSavings(tb, 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}
	if run("13a") || run("13b") || run("13") {
		ce := workload.Cernet(*seed)
		if run("13a") || run("13") {
			f := eval.Fig13aWeightedPathLengths(tb, ce)
			fmt.Println(f)
			writeCSV("fig13a.csv", f)
		}
		if run("13b") || run("13") {
			f, err := eval.Fig13bTopologyGains(tb, ce)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
		}
	}
	if run("14") {
		f, err := eval.Fig14WavelengthDistributions(tb)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig14.csv", f)
	}
	if run("15a") {
		f, err := eval.Fig15aRestoredPathGaps(tb, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig15a.csv", f)
	}
	if run("15b") {
		f, err := eval.Fig15bRestorationVsScale(tb, []float64{1, 2, 3, 4, 5}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig15b.csv", f)
	}
	if run("16") {
		for _, scale := range []float64{1, 5} {
			f, err := eval.Fig16RestorationCDF(tb, scale, *workers)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV(fmt.Sprintf("fig16_scale%g.csv", scale), f)
		}
	}
	if run("prob") {
		f, err := eval.ProbabilisticRestorationSweep(tb, 1, *seed, 40, 0.3, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
	}
	if run("exact") {
		rows, err := eval.ExactCrossCheck([]int{16, 20, 24}, *solverWorkers, *noPresolve)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.ExactCheckString(rows))
	}
	// Solver benchmarks are expensive and machine-dependent, so they run
	// only when asked for explicitly — never as part of "all".
	if want["bench"] {
		counts := eval.SolverBenchWorkerCounts()
		if *solverWorkers > 0 {
			counts = []int{1, *solverWorkers}
		}
		bench, err := eval.SolverBenchmarks(eval.DefaultSolverBenchInstances(), counts, 3, 300*time.Millisecond)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench)
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *benchOut)
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns a
// stop function that flushes the CPU profile and writes the heap profile
// (when memPath is set). The stop function is idempotent and runs on both
// the normal and the fail exit path — os.Exit skips deferred calls, so an
// aborted run would otherwise leave a truncated, unusable CPU profile.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
				}
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			}
		})
	}
}
