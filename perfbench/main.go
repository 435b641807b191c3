// Command perfbench is the repository's end-to-end benchmark. It drives
// the FlexWAN stack through three workloads — exact planning, the
// multi-tenant restore service, and closed-loop fiber-cut recovery —
// checks every output it times, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1). README.md in this directory describes the workloads and
// how each layer metric maps to an end-to-end metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload plan-exact --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are for people:
// the host facts and every metric with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what a workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run: operation counts, the output checks that
// failed, and the measured metrics.
type outcome struct {
	attempted int
	// failed counts operations that failed, were refused, timed out or
	// returned a wrong output.
	failed int
	// mismatches describes every output that failed its check; any entry
	// makes the run incorrect.
	mismatches []string
	e2e        map[string]float64
	layer      map[string]float64
	// facts are host and generator facts printed with the result.
	facts map[string]interface{}
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, facts: map[string]interface{}{}}
}

// mismatch records a failed output check as a failed operation.
func (o *outcome) mismatch(format string, args ...interface{}) {
	o.failed++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// The end-to-end metrics, reported on every workload. setup_s and
// cpu_ms_per_op are process CPU time, which CPU steal on a shared host
// does not inflate; wall-clock set-up time is on the host line and wall
// latencies are per-layer metrics.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

// The per-layer metrics of the traced run. Every workload reports all of
// them; a layer the workload does not call reads 0.
var layerMetrics = []struct{ name, unit string }{
	// plan-exact: the exact planning solve.
	{"solver.nodes", "count"},
	{"solver.pivots", "count"},
	{"solver.pivots_per_s", "1/s"},
	{"solver.refactorizations", "count"},
	{"solver.ftran", "count"},
	{"solver.btran", "count"},
	{"solver.bound_flips", "count"},
	{"solver.warm_start_rate", "fraction"},
	{"solver.presolve_rows", "count"},
	{"solver.presolve_cols", "count"},
	{"solver.dense_fallbacks", "count"},
	{"solver.alloc_mb_per_solve", "MB"},
	{"solver.allocs_per_solve", "count"},
	{"solver.lu_share", "fraction"},
	{"solver.pricing_share", "fraction"},
	{"solver.presolve_share", "fraction"},
	{"plan.build_share", "fraction"},
	{"runtime.gc_share", "fraction"},
	// service-mix: the api layer and the restorer behind it.
	{"api.http_ms_p50", "ms"},
	{"api.run_ms_p50", "ms"},
	{"api.run_ms_p50.sweep", "ms"},
	{"api.queue_wait_ms_p50", "ms"},
	{"api.queue_wait_ms_p99", "ms"},
	{"api.max_queue_depth", "count"},
	{"api.rejected_429", "count"},
	{"api.retained_kb_per_job", "KB"},
	{"restore.solve_ms_p50", "ms"},
	// recovery: telemetry, restorer, controller push, retries.
	{"telemetry.detect_ms_p50", "ms"},
	{"controller.push_tx_ms_p50", "ms"},
	{"controller.push_wss_ms_p50", "ms"},
	{"controller.residual_ms_p50", "ms"},
	{"controller.residual_share", "fraction"},
	{"controller.retries", "1/cut"},
	{"controller.backoff_ms", "ms/cut"},
	{"netconf.faults_injected", "1/cut"},
	{"controller.skipped_devices", "1/cut"},
	{"controller.repair_actions", "1/cut"},
	{"chaos.testbed_build_ms", "ms"},
	{"restore.restored_over_affected", "fraction"},
	// The wall latencies an operator waits on, one workload each. CPU
	// steal on a shared host moves them by more than any bound, so they
	// are not gated; untraced runs print them on comment lines.
	{"plan_solve_s", "s"},
	{"line_solve_ms_p50", "ms"},
	{"restore_job_ms_p50", "ms"},
	{"restore_job_ms_p99", "ms"},
	{"sweep_job_ms_p50", "ms"},
	{"cut_restore_ms_p50", "ms"},
	{"cut_restore_ms_p90", "ms"},
	{"faulted_restore_ms_p50", "ms"},
	// The cost of tracing itself.
	{"trace.overhead_ms", "ms"},
}

var workloads = map[string]func(config) (*outcome, error){
	"plan-exact":  runPlanExact,
	"service-mix": runServiceMix,
	"recovery":    runRecovery,
}

func main() {
	name := flag.String("workload", "", "plan-exact | service-mix | recovery")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}

	tw := timeWaitSockets()
	out, err := run(config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	facts := map[string]interface{}{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "tw_sockets_at_start": tw,
	}
	for k, v := range out.facts {
		facts[k] = v
	}
	factsJSON, _ := json.Marshal(facts)
	fmt.Printf("# host %s\n", factsJSON)
	for _, m := range out.mismatches {
		fmt.Printf("# check failed: %s\n", m)
	}
	failedFrac := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Printf("# %-32s %12d\n# %-32s %12d\n# %-32s %12.4f fraction\n", "attempted", out.attempted, "failed", out.failed, "failed_frac", failedFrac)

	list, values := e2eMetrics, out.e2e
	if *trace == 1 {
		list, values = layerMetrics, out.layer
	}
	metrics := make(map[string]metric, len(list))
	for _, m := range list {
		v := values[m.name]
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("# %-32s %12.4f %s\n", m.name, v, m.unit)
	}
	if *trace == 0 {
		// The workload's wall latencies, which only the traced run reports
		// as metrics.
		for _, m := range layerMetrics {
			if v, ok := out.layer[m.name]; ok {
				fmt.Printf("# %-32s %12.4f %s (wall, not gated)\n", m.name, v, m.unit)
			}
		}
	}
	correct := len(out.mismatches) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: rendering result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// timeWaitSockets reads the TCP TIME_WAIT count from /proc/net/sockstat:
// every loopback testbed leaves hundreds of them behind, and a crowded
// port range slows the next testbed build. -1 when unavailable.
func timeWaitSockets() int {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "TCP:") {
			continue
		}
		fields := strings.Fields(line)
		for i := 0; i+1 < len(fields); i++ {
			if fields[i] == "tw" {
				var n int
				if _, err := fmt.Sscan(fields[i+1], &n); err == nil {
					return n
				}
			}
		}
	}
	return -1
}
