package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexwan/internal/controller"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{QueueDepth: 64, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	return v
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatalf("get job: %v", err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestServicePlanJob: submit a plan job over HTTP, long-poll it to the
// terminal Optimal, and check the result payload — the CI smoke test's
// in-process twin.
func TestServicePlanJob(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitJob(t, ts, "tenant-a", JobSpec{Type: "plan", Network: "ring4"})
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}
	if v.Tenant != "tenant-a" {
		t.Fatalf("tenant = %q", v.Tenant)
	}
	done := waitJob(t, ts, v.ID)
	if done.State != StateOptimal {
		t.Fatalf("job finished %s (error %q), want Optimal", done.State, done.Error)
	}
	var res PlanResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if !res.Feasible || res.Wavelengths == 0 {
		t.Fatalf("plan result not feasible: %+v", res)
	}
}

// TestServiceRestoreBitIdentical: a restoration job through the service
// must produce a payload byte-identical to the equivalent batch
// restore.Solve call — the cache and scheduler may change timing, never
// results.
func TestServiceRestoreBitIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	spec := JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib00"}}
	v := submitJob(t, ts, "tenant-a", spec)
	done := waitJob(t, ts, v.ID)
	if done.State != StateOptimal {
		t.Fatalf("job finished %s (error %q), want Optimal", done.State, done.Error)
	}

	// The batch equivalent, built from scratch.
	net, err := ResolveNetwork(spec.Network, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := ResolveCatalog(spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	grid := spectrum.DefaultGrid()
	base, err := plan.Solve(plan.Problem{Optical: net.Optical, IP: net.IP, Catalog: catalog, Grid: grid, K: spec.K})
	if err != nil {
		t.Fatal(err)
	}
	res, err := restore.Solve(restore.Problem{
		Optical: net.Optical, IP: net.IP, Catalog: catalog, Grid: grid,
		Base: base, Scenario: RestoreScenario(spec.CutFibers), K: spec.K,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RestoreResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	// The stored payload is exactly RestoreResultJSON's bytes; the HTTP
	// encoder re-indents in transit, so compare in compact form.
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, done.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatalf("service result differs from batch restore.Solve:\nservice: %s\nbatch:   %s", gotC.Bytes(), wantC.Bytes())
	}
}

// TestServiceQueueFull429: overflowing the admission queue answers 429.
// A gated executor holds the single worker so the queue genuinely fills.
func TestServiceQueueFull429(t *testing.T) {
	g := newGateExec()
	s := New(Options{QueueDepth: 1, Workers: 1, executor: g.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		close(g.release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	body, _ := json.Marshal(JobSpec{Type: "plan", Network: "ring4"})
	started := g.expectStart("j-000001")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post blocker: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post blocker: status %d", resp.StatusCode)
	}
	<-started // worker held; everything else queues

	got429 := false
	for i := 0; i < 10 && !got429; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
		default:
			t.Fatalf("post: status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatalf("never saw 429 past a depth-1 queue")
	}
}

// TestServiceEvents: the event log is readable as JSON (with from-cursor)
// and as an SSE stream, and ends with the terminal transition.
func TestServiceEvents(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitJob(t, ts, "tenant-a", JobSpec{Type: "plan", Network: "ring4"})
	waitJob(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?from=1&wait=5s")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	var evs []JobEvent
	err = json.NewDecoder(resp.Body).Decode(&evs)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode events: %v", err)
	}
	if len(evs) < 2 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].State != StateQueued || evs[len(evs)-1].State != StateOptimal {
		t.Fatalf("event log %v: want Queued first, Optimal last", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// SSE: same stream, one data: line per event, ends at terminal.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("sse: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content-type %q", ct)
	}
	var dataLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			dataLines++
		}
	}
	if dataLines != len(evs) {
		t.Fatalf("sse streamed %d events, json had %d", dataLines, len(evs))
	}
}

// TestServiceConfigsAndDevices: without a fleet the device endpoints
// answer 503; the config store starts empty and serves appended versions
// with snapshots elided from the list view.
func TestServiceConfigsAndDevices(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("devices without fleet: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	var list []json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 0 {
		t.Fatalf("fresh config list = %v (err %v), want empty", list, err)
	}

	if _, err := s.Store().Append(controller.ConfigVersion{Actor: "op", Action: "apply", Summary: "test version"}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/configs/1")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got["actor"] != "op" || got["version"] != float64(1) {
		t.Fatalf("config version 1 = %v", got)
	}

	resp, err = http.Get(ts.URL + "/v1/configs/7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing config version: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceBadRequests: unknown jobs 404, bad specs 400, unknown job
// types fail the job rather than the request.
func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{bad json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}

	v := submitJob(t, ts, "t", JobSpec{Type: "nonsense", Network: "ring4"})
	done := waitJob(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "unknown job type") {
		t.Fatalf("nonsense job: state %s error %q, want Failed/unknown job type", done.State, done.Error)
	}

	v = submitJob(t, ts, "t", JobSpec{Type: "plan", Network: "atlantis"})
	done = waitJob(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "unknown network") {
		t.Fatalf("bad network job: state %s error %q, want Failed/unknown network", done.State, done.Error)
	}
}

// postJobRaw posts body verbatim to /v1/jobs and returns the status code
// and the decoded error message.
func postJobRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestServiceRejectsUnknownFields: a spec carrying a field JobSpec does
// not have — here the retired "pricing" option — is a 400 naming the
// field, not a job that silently ignores it.
func TestServiceRejectsUnknownFields(t *testing.T) {
	s, ts := newTestServer(t)
	code, msg := postJobRaw(t, ts, `{"type":"plan","network":"ring4","exact":true,"pricing":"devex"}`)
	if code != http.StatusBadRequest || !strings.Contains(msg, `"pricing"`) {
		t.Fatalf("unknown field: status %d error %q, want 400 naming \"pricing\"", code, msg)
	}
	if n := len(s.Scheduler().Jobs()); n != 0 {
		t.Fatalf("rejected spec still queued %d job(s)", n)
	}
}

// TestServiceRejectsOversizedBody: bodies past maxBodyBytes are refused
// with 413 before they are decoded in full.
func TestServiceRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"type":"restore","network":"ring4","cut_fibers":["` + strings.Repeat("x", maxBodyBytes) + `"]}`
	code, msg := postJobRaw(t, ts, body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d error %q, want 413", code, msg)
	}
}

// TestServiceRestoreUnknownFiber: a restore job cutting a fiber the
// network does not have ends Failed with an error naming the fiber,
// instead of Optimal with "0 of 0 Gbps restored".
func TestServiceRestoreUnknownFiber(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitJob(t, ts, "t", JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib99"}})
	done := waitJob(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, `"rfib99"`) {
		t.Fatalf("unknown fiber: state %s error %q, want Failed naming \"rfib99\"", done.State, done.Error)
	}
}
