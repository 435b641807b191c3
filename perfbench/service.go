package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"flexwan/internal/api"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
)

// service-mix: an open loop of restore jobs from independent tenants
// against an in-process api.Server behind a loopback listener.
//
// Restore jobs run for well under a millisecond on the server, so their
// latency is mostly the api layer: HTTP, JSON, long-poll and scheduler.
// Every svcSweepEvery-th job is a T-backbone sweep that holds a worker
// for tens of milliseconds, so a scheduler change that helps short jobs
// by starving long ones shows in sweep_job_ms_p50. The rate stays far
// below the ~800 jobs/s where the client's connections, not the server,
// set the latency. Both networks are fixed at seed 1 for the reason given
// at the plan-exact instances; --seed orders the cut fibers.
const (
	svcRate       = 300 // jobs per second
	svcSweepEvery = 50
	svcTenants    = 4
	svcSetups     = 9
	svcNetSeed    = 1
	// svcJobTimeout bounds one job from its due time; a job past it is a
	// failed operation.
	svcJobTimeout = 15 * time.Second
)

var (
	restoreSpec = api.JobSpec{Type: "restore", Network: "cernet", Seed: svcNetSeed}
	sweepSpec   = api.JobSpec{Type: "sweep", Network: "tbackbone", Seed: svcNetSeed}
)

// svcServer is one service instance and the client that talks to it.
type svcServer struct {
	srv    *api.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startService() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{
		srv:    api.New(api.Options{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// At most NumCPU connections: one load process on this host.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// exchange submits one job and long-polls it to a terminal state. It
// returns the final view; rejected reports a 429 from admission.
func (s *svcServer) exchange(ctx context.Context, tr *tracer, parent int, tenant string, spec api.JobSpec) (view api.JobView, rejected bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return view, false, err
	}
	id := tr.begin("api.submit", parent)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return view, false, err
	}
	req.Header.Set("X-Tenant", tenant)
	code, err := s.getJSON(req, &view)
	tr.end(id)
	if err != nil {
		return view, false, err
	}
	if code == http.StatusTooManyRequests {
		return view, true, fmt.Errorf("submit: 429")
	}
	if code != http.StatusAccepted {
		return view, false, fmt.Errorf("submit: status %d", code)
	}
	// The submit reply never carries the result, even when the job has
	// already finished, so the client always polls at least once.
	id = tr.begin("api.wait", parent)
	defer tr.end(id)
	for first := true; first || !view.State.Terminal(); first = false {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+view.ID+"?wait=5s", nil)
		if err != nil {
			return view, false, err
		}
		code, err := s.getJSON(req, &view)
		if err != nil {
			return view, false, err
		}
		if code != http.StatusOK {
			return view, false, fmt.Errorf("poll: status %d", code)
		}
	}
	return view, false, nil
}

func (s *svcServer) getJSON(req *http.Request, v interface{}) (int, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// svcRefs are the batch answers every service result is checked against.
type svcRefs struct {
	fibers         []string
	restore        map[string][]byte // fiber → compact RestoreResultJSON
	restoreProblem func(fiber string) restore.Problem
	sweepMean      float64
	sweepScenarios int
}

func buildRefs() (*svcRefs, error) {
	base := func(network string) (restore.Problem, error) {
		n, err := api.ResolveNetwork(network, 0, svcNetSeed)
		if err != nil {
			return restore.Problem{}, err
		}
		cat, err := api.ResolveCatalog("")
		if err != nil {
			return restore.Problem{}, err
		}
		grid := spectrum.DefaultGrid()
		res, err := plan.Solve(plan.Problem{Optical: n.Optical, IP: n.IP, Catalog: cat, Grid: grid})
		if err != nil {
			return restore.Problem{}, err
		}
		return restore.Problem{Optical: n.Optical, IP: n.IP, Catalog: cat, Grid: grid, Base: res}, nil
	}
	cernet, err := base(restoreSpec.Network)
	if err != nil {
		return nil, err
	}
	refs := &svcRefs{restore: map[string][]byte{}}
	refs.restoreProblem = func(fiber string) restore.Problem {
		p := cernet
		p.Scenario = api.RestoreScenario([]string{fiber})
		return p
	}
	for _, f := range cernet.Optical.Fibers() {
		res, err := restore.Solve(refs.restoreProblem(f.ID))
		if err != nil {
			return nil, err
		}
		raw, err := api.RestoreResultJSON(res)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return nil, err
		}
		refs.fibers = append(refs.fibers, f.ID)
		refs.restore[f.ID] = buf.Bytes()
	}
	tb, err := base(sweepSpec.Network)
	if err != nil {
		return nil, err
	}
	scenarios := restore.SingleFiberScenarios(tb.Optical)
	sw, err := restore.SweepWithOptions(tb, scenarios, restore.SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	refs.sweepMean, refs.sweepScenarios = sw.MeanCapability(), len(scenarios)
	return refs, nil
}

// check compares a terminal job view with the batch answer.
func (r *svcRefs) check(view api.JobView, fiber string) error {
	if view.State != api.StateOptimal {
		return fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, view.Result); err != nil {
		return fmt.Errorf("job %s result: %w", view.ID, err)
	}
	if fiber != "" {
		if !bytes.Equal(buf.Bytes(), r.restore[fiber]) {
			return fmt.Errorf("restore job %s (cut %s) payload differs from batch restore.Solve", view.ID, fiber)
		}
		return nil
	}
	var sw api.SweepResult
	if err := json.Unmarshal(buf.Bytes(), &sw); err != nil {
		return fmt.Errorf("sweep job %s result: %w", view.ID, err)
	}
	if sw.Failed != 0 || sw.Scenarios != r.sweepScenarios || sw.MeanCapability != r.sweepMean {
		return fmt.Errorf("sweep job %s: %d scenarios, %d failed, mean capability %v; batch %d, 0, %v",
			view.ID, sw.Scenarios, sw.Failed, sw.MeanCapability, r.sweepScenarios, r.sweepMean)
	}
	return nil
}

// svcSample is one completed job.
type svcSample struct {
	sweep    bool
	traced   bool
	latMs    float64 // from the due time to the terminal view
	clientMs float64 // first request sent to terminal view received
	queueMs  float64 // StartedAt − SubmittedAt
	runMs    float64 // FinishedAt − StartedAt
}

func runServiceMix(cfg config) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(cfg.trace)
	refs, err := buildRefs()
	if err != nil {
		return nil, fmt.Errorf("batch references: %w", err)
	}

	// Set-up: a fresh server, warmed by one job of each kind so the plan
	// cache holds both base plans before timing starts.
	var setups, setupWall []float64
	var svc *svcServer
	for i := 0; i < svcSetups; i++ {
		c0, t0 := processCPU(), time.Now()
		s, err := startService()
		if err != nil {
			return nil, err
		}
		for _, spec := range []api.JobSpec{withCut(restoreSpec, refs.fibers[0]), sweepSpec} {
			ctx, cancel := context.WithTimeout(context.Background(), svcJobTimeout)
			view, _, err := s.exchange(ctx, nil, -1, "warmup", spec)
			cancel()
			if err == nil && view.State != api.StateOptimal {
				err = fmt.Errorf("warm-up %s job ended %s: %s", spec.Type, view.State, view.Error)
			}
			if err != nil {
				_ = s.stop()
				return nil, err
			}
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		svc = s
	}
	out.e2e["setup_s"] = median(setups)
	out.facts["setup_wall_s"] = median(setupWall)
	heapAfterSetup := liveHeapMB()

	rng := rand.New(rand.NewSource(cfg.seed))
	cuts := append([]string(nil), refs.fibers...)
	rng.Shuffle(len(cuts), func(i, j int) { cuts[i], cuts[j] = cuts[j], cuts[i] })
	tenantOffset := rng.Intn(svcTenants)

	var (
		mu       sync.Mutex
		samples  []svcSample
		rejected int // refused by admission (429)
		lost     int // transport errors and timeouts
		wrong    []string
		wg       sync.WaitGroup
		lateness []float64
	)
	period := time.Second / svcRate
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(cfg.seconds)

	// The traced run profiles alternate one-second windows; a job is
	// traced when its due time falls in a profiled window.
	toggleDone := make(chan error, 1)
	stopToggle := make(chan struct{})
	if tr != nil {
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			on := true
			err := tr.setOn(on)
			for {
				select {
				case <-tick.C:
					if err == nil {
						on = !on
						err = tr.setOn(on)
					}
				case <-stopToggle:
					if err == nil {
						err = tr.setOn(false)
					}
					toggleDone <- err
					return
				}
			}
		}()
	}

	jobs := 0
	cpu0 := processCPU()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, msOf(time.Since(due)))
		jobs++
		spec, fiber := sweepSpec, ""
		if i%svcSweepEvery != svcSweepEvery-1 {
			fiber = cuts[i%len(cuts)]
			spec = withCut(restoreSpec, fiber)
		}
		tenant := fmt.Sprintf("tenant-%d", (i+tenantOffset)%svcTenants)
		wg.Add(1)
		go func(due time.Time, spec api.JobSpec, fiber, tenant string) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(svcJobTimeout))
			defer cancel()
			traced := tr.tracing()
			root := tr.begin("job."+spec.Type, -1)
			sent := time.Now()
			view, rej, err := svc.exchange(ctx, tr, root, tenant, spec)
			done := time.Now()
			tr.end(root)
			var wrongErr error
			if err == nil {
				wrongErr = refs.check(view, fiber)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case rej:
				rejected++
				return
			case err != nil:
				lost++
				return
			case wrongErr != nil:
				wrong = append(wrong, wrongErr.Error())
				return
			}
			s := svcSample{sweep: fiber == "", traced: traced,
				latMs: msOf(done.Sub(due)), clientMs: msOf(done.Sub(sent))}
			if view.StartedAt != nil && view.FinishedAt != nil {
				s.queueMs = msOf(view.StartedAt.Sub(view.SubmittedAt))
				s.runMs = msOf(view.FinishedAt.Sub(*view.StartedAt))
			}
			samples = append(samples, s)
		}(due, spec, fiber, tenant)
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	if tr != nil {
		close(stopToggle)
		if err := <-toggleDone; err != nil {
			return nil, err
		}
	}

	var stats api.SchedStats
	req, err := http.NewRequest(http.MethodGet, svc.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if _, err := svc.getJSON(req, &stats); err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}
	// The live heap with the server and every job it keeps still up.
	heap := liveHeapMB()
	if err := svc.stop(); err != nil {
		return nil, err
	}

	out.attempted = jobs
	out.failed = rejected + lost
	for _, w := range wrong {
		out.mismatch("%s", w)
	}
	var restoreLat, sweepLat, restoreRun, sweepRun, queue, httpMs, traced, untraced []float64
	for _, s := range samples {
		if s.sweep {
			sweepLat = append(sweepLat, s.latMs)
			sweepRun = append(sweepRun, s.runMs)
			continue
		}
		restoreLat = append(restoreLat, s.latMs)
		restoreRun = append(restoreRun, s.runMs)
		queue = append(queue, s.queueMs)
		httpMs = append(httpMs, s.clientMs-(s.queueMs+s.runMs))
		if s.traced {
			traced = append(traced, s.latMs)
		} else {
			untraced = append(untraced, s.latMs)
		}
	}
	out.e2e["cpu_ms_per_op"] = msOf(cpu) / float64(max(jobs, 1))
	out.layer["restore_job_ms_p50"] = median(restoreLat)
	out.layer["restore_job_ms_p99"] = quantile(restoreLat, 0.99)
	out.layer["sweep_job_ms_p50"] = median(sweepLat)
	out.e2e["heap_mb"] = heap
	out.facts["restore_jobs"] = len(restoreLat)
	out.facts["sweep_jobs"] = len(sweepLat)
	out.facts["rate_per_s"] = svcRate
	out.facts["gen_lateness_ms_p99"] = quantile(lateness, 0.99)
	out.facts["gen_lateness_ms_max"] = quantile(lateness, 1)

	if tr == nil {
		return out, nil
	}
	if err := tr.finish(); err != nil {
		return nil, err
	}
	// The same cuts through batch restore.Solve, without the service.
	var solveMs []float64
	for _, f := range cuts {
		t0 := time.Now()
		if _, err := restore.Solve(refs.restoreProblem(f)); err != nil {
			return nil, err
		}
		solveMs = append(solveMs, msOf(time.Since(t0)))
	}
	l := out.layer
	l["api.http_ms_p50"] = median(httpMs)
	l["api.run_ms_p50"] = median(restoreRun)
	l["api.run_ms_p50.sweep"] = median(sweepRun)
	l["api.queue_wait_ms_p50"] = median(queue)
	l["api.queue_wait_ms_p99"] = quantile(queue, 0.99)
	l["api.max_queue_depth"] = float64(stats.MaxQueueDepth)
	l["api.rejected_429"] = float64(rejected)
	l["api.retained_kb_per_job"] = (heap - heapAfterSetup) * 1024 / float64(max(jobs, 1))
	l["restore.solve_ms_p50"] = median(solveMs)
	l["runtime.gc_share"] = tr.cpu.share("gc")
	l["trace.overhead_ms"] = overhead(traced, untraced)
	return out, nil
}

func withCut(spec api.JobSpec, fiber string) api.JobSpec {
	spec.CutFibers = []string{fiber}
	return spec
}
