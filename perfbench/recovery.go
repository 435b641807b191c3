package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"flexwan/internal/chaos"
	"flexwan/internal/controller"
	"flexwan/internal/restore"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// recovery: a closed loop of fiber cuts on one live CERNET testbed. Each
// cycle cuts the fiber carrying the most live Gbps, waits for the
// controller's fiber-cut report, repairs the fiber and waits for the
// fiber-restored report. Clean cycles are bound by detection, the
// restoration solve and the config push; every recFaultEvery-th cycle
// drops every configuration RPC to one transponder the push must reach,
// so the same push goes through the retry and timeout path instead.
//
// Few testbeds per run: each CERNET testbed leaves hundreds of loopback
// sockets in TIME_WAIT, and building tens of them a minute slows every
// later build several-fold. recSetups builds a run stay far below that.
// The network is fixed at seed 1; --seed drives the fault victims and
// the retry jitter.
const (
	recNetSeed = 1
	recSetups  = 3
	// recCollectInterval is the telemetry polling period: the paper's
	// production one-second granularity. Cuts are detected by the
	// amplifiers' asynchronous alarms either way; the drills' 25 ms
	// polling adds ~12 000 background RPCs a second on a CERNET testbed,
	// and its store grows with every poll, so the live heap at the end
	// depended on whether the poll count had crossed a slice-growth step.
	recCollectInterval = time.Second
	recFaultEvery      = 10
	// recWait bounds every wait for a report; a missed report is a
	// failed operation, never a hang.
	recWait = 10 * time.Second
	// recRepairAttempts bounds the reconciliation after a faulted cut.
	recRepairAttempts = 20
)

func runRecovery(cfg config) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(cfg.trace)

	// The default retry policy, with a seeded jitter source and a sleep
	// hook that still sleeps but counts retries and backoff.
	var (
		retryMu   sync.Mutex
		jitter    = rand.New(rand.NewSource(cfg.seed))
		retries   int
		backoffMs float64
	)
	policy := controller.DefaultRetryPolicy()
	policy.Rand = func() float64 {
		retryMu.Lock()
		defer retryMu.Unlock()
		return jitter.Float64()
	}
	policy.Sleep = func(d time.Duration) {
		retryMu.Lock()
		retries++
		backoffMs += msOf(d)
		retryMu.Unlock()
		time.Sleep(d)
	}

	// Set-up: build the testbed recSetups times and keep the last; each
	// build plans CERNET, starts every device agent on loopback TCP and
	// applies the plan.
	network := workload.Cernet(recNetSeed)
	var (
		tb                *chaos.Testbed
		builds, buildWall []float64
	)
	for i := 0; i < recSetups; i++ {
		if tb != nil {
			tb.Close()
		}
		c0, t0 := processCPU(), time.Now()
		var err error
		tb, err = chaos.NewTestbed(network, chaos.Options{Retry: &policy, CollectInterval: recCollectInterval})
		if err != nil {
			return nil, fmt.Errorf("building testbed: %w", err)
		}
		builds = append(builds, (processCPU() - c0).Seconds())
		buildWall = append(buildWall, time.Since(t0).Seconds())
	}
	defer tb.Close()
	out.e2e["setup_s"] = median(builds)
	out.facts["setup_wall_s"] = median(buildWall)

	// A faulted cut drops every configuration RPC to one transponder the
	// push must reach, chosen by the seed among the ends of the channels
	// on the cut fiber. The push runs the whole retry schedule on it
	// (three attempts, two backoffs), skips it, and Repair converges it
	// once the fault is lifted. Random 10 % drops over the few dozen
	// transponders a busy cut touches made the latency multimodal — one,
	// two or three retry rounds (0.3, 0.65, 0.9 s) — and its median
	// jumped between modes from run to run.
	inj := chaos.NewInjector(cfg.seed, chaos.FaultConfig{DropRequestProb: 1}, nil)
	victims := rand.New(rand.NewSource(cfg.seed))

	reports := make(chan *controller.RestoreReport, 16)
	ctx, cancel := context.WithCancel(context.Background())
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		tb.Ctrl.WatchContext(ctx, tb.Collector.Events(), func(rep *controller.RestoreReport) {
			select {
			case reports <- rep:
			case <-ctx.Done():
			}
		})
	}()
	tb.Collector.Run()
	defer func() {
		cancel()
		watcher.Wait()
	}()

	var (
		clean, faulted                 []float64
		detect, solve, pushTx, pushWSS []float64
		residual                       []float64
		tracedMs, untracedMs           []float64
		affected, restored             int
		faultedCuts, skipped, repairs  int
		retriesFaulted                 int
		backoffFaulted                 float64
	)
	cpu0 := processCPU()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		isFaulted := i%recFaultEvery == recFaultEvery-1
		traced := !isFaulted && (i/recFaultEvery)%2 == 0
		if err := tr.setOn(traced); err != nil {
			return nil, err
		}
		fiber := busiestFiber(tb)
		if fiber == "" {
			return nil, fmt.Errorf("no live channels left to cut after %d cycles", i)
		}
		base := tb.Ctrl.CurrentPlan()
		out.attempted++

		retryMu.Lock()
		retriesBefore, backoffBefore := retries, backoffMs
		retryMu.Unlock()
		var victim string
		if isFaulted {
			if victim = pickVictim(tb, fiber, victims); victim == "" {
				return nil, fmt.Errorf("no live channel on busiest fiber %s", fiber)
			}
			inj.Bind(victim, tb.Transponders[victim].Server())
			inj.Arm()
		}
		root := tr.begin("cycle", -1)
		cutAt := time.Now()
		tb.Fabric.Cut(fiber)
		wait := tr.begin("await.fiber-cut", root)
		rep, err := awaitReport(reports, "fiber-cut", fiber)
		total := time.Since(cutAt)
		tr.end(wait)
		inj.Disarm()
		if victim != "" {
			tb.Transponders[victim].Server().SetInterceptor(nil)
		}
		if err != nil {
			out.failed++
			tb.Fabric.Repair(fiber)
			_, _ = awaitReport(reports, "fiber-restored", fiber)
			tr.end(root)
			continue
		}
		if rep.Result == nil {
			out.mismatch("fiber-cut report for %s carries no result", fiber)
		}

		if isFaulted {
			faultedCuts++
			faulted = append(faulted, msOf(total))
			skipped += len(rep.SkippedDevices)
			retryMu.Lock()
			retriesFaulted += retries - retriesBefore
			backoffFaulted += backoffMs - backoffBefore
			retryMu.Unlock()
			if rep.Degraded() || len(rep.PendingChannels) > 0 {
				id := tr.begin("controller.Repair", root)
				n, err := repairUntilClean(tb)
				tr.end(id)
				repairs += n
				if err != nil {
					out.mismatch("cut %s: %v", fiber, err)
				}
			}
		} else {
			ms := msOf(total)
			clean = append(clean, ms)
			if traced {
				tracedMs = append(tracedMs, ms)
			} else {
				untracedMs = append(untracedMs, ms)
			}
			d := msOf(rep.Event.Time.Sub(cutAt))
			detect = append(detect, d)
			solve = append(solve, msOf(rep.SolveTime))
			pushTx = append(pushTx, msOf(rep.PushTxTime))
			pushWSS = append(pushWSS, msOf(rep.PushWSSTime))
			residual = append(residual, ms-d-msOf(rep.SolveTime)-msOf(rep.PushTxTime)-msOf(rep.PushWSSTime))
		}

		if rep.Result != nil {
			affected += rep.Result.AffectedGbps
			restored += rep.Result.RestoredGbps
			id := tr.begin("restore.Solve.oracle", root)
			oracle, err := restore.Solve(restore.Problem{
				Optical: tb.Net.Optical, IP: tb.Net.IP, Catalog: transponder.SVT(), Grid: tb.Grid,
				Base:     base,
				Scenario: restore.Scenario{ID: "oracle-" + fiber, CutFibers: []string{fiber}},
				K:        tb.K,
			})
			tr.end(id)
			switch {
			case err != nil:
				out.mismatch("oracle solve for %s: %v", fiber, err)
			case oracle.RestoredGbps != rep.Result.RestoredGbps:
				out.mismatch("cut %s restored %d Gbps, offline restore.Solve %d", fiber, rep.Result.RestoredGbps, oracle.RestoredGbps)
			}
		}

		tb.Fabric.Repair(fiber)
		wait = tr.begin("await.fiber-restored", root)
		_, err = awaitReport(reports, "fiber-restored", fiber)
		tr.end(wait)
		if err != nil {
			out.failed++
		}
		id := tr.begin("controller.Audit", root)
		audit, err := tb.Ctrl.Audit()
		tr.end(id)
		if err != nil || !audit.Clean() {
			out.mismatch("audit after cut %s: clean=%v err=%v", fiber, err == nil && audit.Clean(), err)
		}
		tr.end(root)
	}
	cpu := processCPU() - cpu0
	if err := tr.setOn(false); err != nil {
		return nil, err
	}

	p50 := median(clean)
	out.e2e["cpu_ms_per_op"] = msOf(cpu) / float64(max(out.attempted, 1))
	out.layer["cut_restore_ms_p50"] = p50
	out.layer["cut_restore_ms_p90"] = quantile(clean, 0.9)
	out.layer["faulted_restore_ms_p50"] = median(faulted)
	out.e2e["heap_mb"] = liveHeapMB()
	out.facts["clean_cuts"] = len(clean)
	out.facts["faulted_cuts"] = len(faulted)

	if tr == nil {
		return out, nil
	}
	if err := tr.finish(); err != nil {
		return nil, err
	}
	perCut := func(n float64) float64 { return n / float64(max(faultedCuts, 1)) }
	l := out.layer
	l["telemetry.detect_ms_p50"] = median(detect)
	l["restore.solve_ms_p50"] = median(solve)
	l["controller.push_tx_ms_p50"] = median(pushTx)
	l["controller.push_wss_ms_p50"] = median(pushWSS)
	l["controller.residual_ms_p50"] = median(residual)
	if p50 > 0 {
		l["controller.residual_share"] = median(residual) / p50
	}
	l["controller.retries"] = perCut(float64(retriesFaulted))
	l["controller.backoff_ms"] = perCut(backoffFaulted)
	l["netconf.faults_injected"] = perCut(float64(inj.Injections()))
	l["controller.skipped_devices"] = perCut(float64(skipped))
	l["controller.repair_actions"] = perCut(float64(repairs))
	l["chaos.testbed_build_ms"] = median(buildWall) * 1000
	if affected > 0 {
		l["restore.restored_over_affected"] = float64(restored) / float64(affected)
	}
	l["runtime.gc_share"] = tr.cpu.share("gc")
	l["trace.overhead_ms"] = overhead(tracedMs, untracedMs)
	return out, nil
}

// awaitReport waits up to recWait for the report of (kind, fiber),
// dropping unrelated reports.
func awaitReport(reports <-chan *controller.RestoreReport, kind, fiber string) (*controller.RestoreReport, error) {
	timeout := time.NewTimer(recWait)
	defer timeout.Stop()
	for {
		select {
		case rep := <-reports:
			if rep.Event.Kind == kind && rep.Event.Fiber == fiber {
				return rep, nil
			}
		case <-timeout.C:
			return nil, fmt.Errorf("no %s report for %s within %v", kind, fiber, recWait)
		}
	}
}

// repairUntilClean re-asserts the controller's intent until the audit is
// clean, returning the repair actions taken.
func repairUntilClean(tb *chaos.Testbed) (int, error) {
	actions := 0
	for i := 0; i < recRepairAttempts; i++ {
		fixed, err := tb.Ctrl.Repair()
		actions += len(fixed)
		if err == nil {
			if audit, aerr := tb.Ctrl.Audit(); aerr == nil && audit.Clean() {
				return actions, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return actions, fmt.Errorf("audit not clean after %d repair attempts", recRepairAttempts)
}

// pickVictim draws one transponder at either end of a channel on the
// fiber ("" when no channel crosses it).
func pickVictim(tb *chaos.Testbed, fiber string, rng *rand.Rand) string {
	var ends []string
	for _, ch := range tb.Ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			if f == fiber {
				ends = append(ends, ch.TxA, ch.TxB)
				break
			}
		}
	}
	if len(ends) == 0 {
		return ""
	}
	sort.Strings(ends)
	return ends[rng.Intn(len(ends))]
}

// busiestFiber is the fiber carrying the most live Gbps in the
// controller's current plan, ties broken by name.
func busiestFiber(tb *chaos.Testbed) string {
	load := map[string]int{}
	for _, w := range tb.Ctrl.CurrentPlan().Wavelengths {
		for _, f := range w.Path.Fibers {
			load[f] += w.Mode.DataRateGbps
		}
	}
	best, bestLoad := "", 0
	for f, g := range load {
		if g > bestLoad || (g == bestLoad && f < best) {
			best, bestLoad = f, g
		}
	}
	return best
}
