package controller

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/telemetry"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// harness is a complete simulated deployment: optical topology, physical
// fabric, device agents, and a controller wired to all of them.
type harness struct {
	fabric       *device.Fabric
	optical      *topology.Optical
	ip           *topology.IPTopology
	ctrl         *Controller
	transponders map[string]*device.Transponder
	wss          map[string]*device.WSS
	sources      []telemetry.Source
}

// ringFibers is the Fig. 4 ring: A–B direct plus a longer detour via C.
var ringFibers = []struct {
	id   string
	a, b topology.NodeID
	l    float64
}{
	{"f1", "A", "B", 600},
	{"f2", "A", "C", 500},
	{"f3", "C", "B", 700},
}

// newHarness builds the ring with nTx transponders per site and one
// pixel-wise WSS plus one amplifier per fiber.
func newHarness(t *testing.T, nTx int, demands ...topology.IPLink) *harness {
	t.Helper()
	h := &harness{
		fabric:       device.NewFabric(phy.DefaultLink()),
		optical:      topology.New(),
		ip:           &topology.IPTopology{},
		transponders: make(map[string]*device.Transponder),
		wss:          make(map[string]*device.WSS),
	}
	grid := spectrum.DefaultGrid()
	for _, f := range ringFibers {
		if err := h.optical.AddFiber(f.id, f.a, f.b, f.l); err != nil {
			t.Fatal(err)
		}
		if err := h.fabric.AddFiber(f.id, f.l); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range demands {
		if err := h.ip.AddLink(d); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := New(Config{
		Optical: h.optical,
		IP:      h.ip,
		Catalog: transponder.SVT(),
		Grid:    grid,
		K:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = ctrl
	t.Cleanup(ctrl.Close)

	register := func(desc devmodel.Descriptor, start func(string) (string, error), close func()) {
		t.Helper()
		addr, err := start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(close)
		desc.Address = addr
		if err := ctrl.DevMgr().Register(desc); err != nil {
			t.Fatal(err)
		}
		// A second session feeds the telemetry collector (production
		// separates config and data-stream sessions).
		c, err := netconf.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		h.sources = append(h.sources, telemetry.Source{Desc: desc, Client: c})
	}

	for _, site := range []topology.NodeID{"A", "B", "C"} {
		for i := 0; i < nTx; i++ {
			desc := devmodel.Descriptor{
				ID: fmt.Sprintf("tx-%s-%d", site, i), Class: devmodel.ClassTransponder,
				Vendor: "vendorA", Address: "pending", Site: string(site),
			}
			tr := device.NewTransponder(desc, grid, transponder.SVT(), h.fabric)
			h.transponders[desc.ID] = tr
			register(desc, tr.Start, tr.Close)
		}
	}
	for _, f := range ringFibers {
		desc := devmodel.Descriptor{
			ID: "wss-" + f.id, Class: devmodel.ClassWSS,
			Vendor: "vendorB", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		w := device.NewWSS(desc, grid)
		h.wss[f.id] = w
		register(desc, w.Start, w.Close)

		ampDesc := devmodel.Descriptor{
			ID: "amp-" + f.id, Class: devmodel.ClassAmplifier,
			Vendor: "vendorC", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		amp := device.NewAmplifier(ampDesc, h.fabric, f.id)
		register(ampDesc, amp.Start, amp.Close)
	}
	return h
}

func TestPlanApplyAudit(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 600})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("plan infeasible: %v", res.Unserved)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("audit dirty: %+v", report)
	}
	if report.ChannelsChecked != len(res.Wavelengths) {
		t.Errorf("audited %d channels, plan has %d", report.ChannelsChecked, len(res.Wavelengths))
	}
	// Live capacity covers the demand.
	if got := h.ctrl.LiveCapacityGbps()["e1"]; got < 600 {
		t.Errorf("live capacity = %d, want ≥ 600", got)
	}
	// The hardware decodes cleanly: every enabled transponder reports
	// post-FEC BER 0.
	for id, tr := range h.transponders {
		st := tr.State()
		if st.Config.Enabled && st.PostFECBER != 0 {
			t.Errorf("%s: post-FEC BER %v on healthy plan", id, st.PostFECBER)
		}
	}
	// The WSS on f1 passes the wavelength's interval.
	for _, ch := range h.ctrl.Channels() {
		st := h.ctrl.channels[ch]
		for _, f := range st.wavelength.Path.Fibers {
			if !h.wss[f].PassesInterval(st.wavelength.Interval) {
				t.Errorf("WSS on %s does not pass %v for %s", f, st.wavelength.Interval, ch)
			}
		}
	}
}

func TestApplyExhaustsTransponderPool(t *testing.T) {
	// 1 transponder per site cannot carry 1600 Gbps (needs ≥ 2 channels).
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 1600})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	err = h.ctrl.Apply(res)
	if err == nil || !strings.Contains(err.Error(), "no free transponder") {
		t.Errorf("Apply with exhausted pool: %v", err)
	}
}

func TestEndToEndFiberCutRestoration(t *testing.T) {
	// 400 Gbps planned on the 600 km f1 path; after the cut the SVT
	// re-modulates to 400G@112.5 GHz (reach 1600 km) on the 1200 km
	// detour — full revival, the Fig. 4 mechanism.
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	// All channels ride the 600 km f1 path (shortest).
	for _, ch := range h.ctrl.Channels() {
		if got := h.ctrl.channels[ch].wavelength.Path.Fibers; len(got) != 1 || got[0] != "f1" {
			t.Fatalf("channel %s path = %v, want [f1]", ch, got)
		}
	}

	store := telemetry.NewStore(256)
	col := telemetry.NewCollector(store, 50*time.Millisecond, h.sources)
	col.Run()
	defer col.Stop()
	time.Sleep(100 * time.Millisecond)

	restored := make(chan struct{})
	go func() {
		for ev := range col.Events() {
			if ev.Kind != "fiber-cut" {
				continue
			}
			if _, err := h.ctrl.HandleFiberCut(ev.Fiber); err != nil {
				t.Errorf("HandleFiberCut: %v", err)
			}
			close(restored)
			return
		}
	}()

	h.fabric.Cut("f1")
	select {
	case <-restored:
	case <-time.After(5 * time.Second):
		t.Fatal("cut was not detected and restored")
	}

	// The link's capacity must be fully revived over the 1200 km detour.
	if got := h.ctrl.LiveCapacityGbps()["e1"]; got != 400 {
		t.Errorf("restored capacity = %d, want 400", got)
	}
	for _, ch := range h.ctrl.Channels() {
		w := h.ctrl.channels[ch].wavelength
		if len(w.Path.Fibers) != 2 {
			t.Errorf("channel %s path = %v, want the f2+f3 detour", ch, w.Path.Fibers)
		}
	}
	// Post-restoration audit is clean and hardware decodes error-free.
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("post-restoration audit dirty: %+v", report)
	}
	for id, tr := range h.transponders {
		st := tr.State()
		if st.Config.Enabled && st.PostFECBER != 0 {
			t.Errorf("%s: post-FEC BER %v after restoration", id, st.PostFECBER)
		}
	}
}

func TestHandleFiberCutIdempotent(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ctrl.HandleFiberCut("f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ctrl.HandleFiberCut("f1"); err == nil {
		t.Error("second cut of the same fiber accepted")
	}
}

// TestUnknownFiberCutLeavesStateClean: a cut report for a fiber the
// topology lacks is refused without marking it down, so the next real
// cut still restores over a live solve.
func TestUnknownFiberCutLeavesStateClean(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ctrl.HandleFiberCut("no-such-fiber"); err == nil || !strings.Contains(err.Error(), "no-such-fiber") {
		t.Fatalf("unknown fiber cut: err = %v, want one naming the fiber", err)
	}
	got, err := h.ctrl.HandleFiberCut("f1")
	if err != nil {
		t.Fatalf("real cut after an unknown one: %v", err)
	}
	if got.RestoredGbps != 400 {
		t.Fatalf("restored %d Gbps, want 400", got.RestoredGbps)
	}
}

func TestRegisterValidation(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	dm := h.ctrl.DevMgr()
	if err := dm.Register(devmodel.Descriptor{}); err == nil {
		t.Error("empty descriptor accepted")
	}
	if err := dm.Register(devmodel.Descriptor{
		ID: "x", Class: devmodel.ClassTransponder, Address: "127.0.0.1:1", Site: "A",
	}); err == nil {
		t.Error("unreachable device accepted")
	}
	// Identity mismatch: register a live agent under the wrong ID.
	tr := device.NewTransponder(devmodel.Descriptor{
		ID: "real-id", Class: devmodel.ClassTransponder, Vendor: "v", Address: "x", Site: "A",
	}, spectrum.DefaultGrid(), transponder.SVT(), h.fabric)
	addr, err := tr.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	err = dm.Register(devmodel.Descriptor{
		ID: "claimed-id", Class: devmodel.ClassTransponder, Address: addr, Site: "A",
	})
	if err == nil || !strings.Contains(err.Error(), "identifies as") {
		t.Errorf("identity mismatch error = %v", err)
	}
}

func TestClaimReleaseTransponder(t *testing.T) {
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	dm := h.ctrl.DevMgr()
	if n := dm.FreeTransponders("A"); n != 2 {
		t.Fatalf("free at A = %d, want 2", n)
	}
	id, err := dm.ClaimTransponder("A", "e1:1")
	if err != nil {
		t.Fatal(err)
	}
	if ch, ok := dm.Assignment(id); !ok || ch != "e1:1" {
		t.Errorf("assignment = %q, %v", ch, ok)
	}
	if n := dm.FreeTransponders("A"); n != 1 {
		t.Errorf("free after claim = %d", n)
	}
	dm.ReleaseTransponder(id)
	if n := dm.FreeTransponders("A"); n != 2 {
		t.Errorf("free after release = %d", n)
	}
	// Double release is a no-op.
	dm.ReleaseTransponder(id)
	if n := dm.FreeTransponders("A"); n != 2 {
		t.Errorf("free after double release = %d", n)
	}
	if _, err := dm.ClaimTransponder("nowhere", "c"); err == nil {
		t.Error("claim at unknown site succeeded")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	g := topology.New()
	ip := &topology.IPTopology{}
	if _, err := New(Config{Optical: g, IP: ip, Grid: spectrum.DefaultGrid()}); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := New(Config{Optical: g, IP: ip, Catalog: transponder.SVT()}); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestWatchDrivesRestoration(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	events := make(chan telemetry.Event, 4)
	restored := make(chan *restore.Result, 1)
	done := make(chan struct{})
	go func() {
		h.ctrl.Watch(events, func(r *restore.Result) { restored <- r })
		close(done)
	}()
	events <- telemetry.Event{Kind: "noise"} // ignored
	events <- telemetry.Event{Kind: "fiber-cut", Fiber: "f1", Time: time.Now()}
	select {
	case r := <-restored:
		if r.RestoredGbps != 400 {
			t.Errorf("restored = %d, want 400", r.RestoredGbps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch did not drive restoration")
	}
	close(events)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Watch did not return after channel close")
	}
}

// TestConcurrentReadsDuringRestoration hammers the controller's read
// paths while a fiber cut is being handled; run with -race in CI.
func TestConcurrentReadsDuringRestoration(t *testing.T) {
	h := newHarness(t, 4, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.ctrl.Channels()
					_ = h.ctrl.LiveCapacityGbps()
					if _, err := h.ctrl.Audit(); err != nil {
						t.Errorf("audit: %v", err)
						return
					}
				}
			}
		}()
	}
	if _, err := h.ctrl.HandleFiberCut("f1"); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("final audit dirty: %+v", report)
	}
}

func TestPlaybookUsedForFirstFailure(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	// Precompute the f1 plan offline, as §4.4 prescribes.
	pre, err := restore.Solve(restore.Problem{
		Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(),
		Grid: h.ctrl.cfg.Grid, Base: res,
		Scenario: restore.Scenario{ID: "pre-f1", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.SetPlaybook(map[string]*restore.Result{"f1": pre})

	got, err := h.ctrl.HandleFiberCut("f1")
	if err != nil {
		t.Fatal(err)
	}
	if got != pre {
		t.Error("controller did not use the precomputed plan")
	}
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("audit after playbook restoration: %+v", report)
	}
	if h.ctrl.LiveCapacityGbps()["e1"] != 400 {
		t.Errorf("capacity = %d", h.ctrl.LiveCapacityGbps()["e1"])
	}
	// Second failure (f2) must NOT use any playbook entry: the network
	// state has diverged from the pre-failure assumption.
	pre2, err := restore.Solve(restore.Problem{
		Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(),
		Grid: h.ctrl.cfg.Grid, Base: res,
		Scenario: restore.Scenario{ID: "pre-f2", CutFibers: []string{"f2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.SetPlaybook(map[string]*restore.Result{"f2": pre2})
	got2, err := h.ctrl.HandleFiberCut("f2")
	if err != nil {
		t.Fatal(err)
	}
	if got2 == pre2 {
		t.Error("stale playbook entry used after a prior failure")
	}
}

func TestSequentialDoubleFailure(t *testing.T) {
	// Cut f1 (restored onto the detour), then cut f3 (severs the detour):
	// A and B are now disconnected, so the second restoration revives
	// nothing — and the controller stays consistent throughout.
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	first, err := h.ctrl.HandleFiberCut("f1")
	if err != nil {
		t.Fatal(err)
	}
	if first.RestoredGbps != 400 {
		t.Fatalf("first restoration = %d", first.RestoredGbps)
	}
	second, err := h.ctrl.HandleFiberCut("f3")
	if err != nil {
		t.Fatal(err)
	}
	if second.RestoredGbps != 0 {
		t.Errorf("second restoration revived %d Gbps on a disconnected pair", second.RestoredGbps)
	}
	if got := h.ctrl.LiveCapacityGbps()["e1"]; got != 0 {
		t.Errorf("live capacity = %d after total isolation", got)
	}
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("audit dirty after double failure: %+v", report)
	}
	// All transponder pairs must have been returned to the pool.
	for site, want := range map[string]int{"A": 3, "B": 3, "C": 3} {
		if got := h.ctrl.DevMgr().FreeTransponders(site); got != want {
			t.Errorf("site %s free = %d, want %d", site, got, want)
		}
	}
}

func TestDevMgrIntrospection(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	dm := h.ctrl.DevMgr()
	devices := dm.Devices()
	// 3 transponders + 3 WSS + 3 amplifiers.
	if len(devices) != 9 {
		t.Fatalf("devices = %d, want 9", len(devices))
	}
	for i := 1; i < len(devices); i++ {
		if devices[i-1].ID >= devices[i].ID {
			t.Fatal("Devices not sorted by ID")
		}
	}
	desc, ok := dm.Descriptor("wss-f1")
	if !ok || desc.Fiber != "f1" || desc.Class != devmodel.ClassWSS {
		t.Errorf("Descriptor(wss-f1) = %+v, %v", desc, ok)
	}
	if _, ok := dm.Descriptor("ghost"); ok {
		t.Error("Descriptor(ghost) succeeded")
	}
	if _, ok := dm.WSSForFiber("nonexistent"); ok {
		t.Error("WSSForFiber(nonexistent) succeeded")
	}
}

func TestControllerLogf(t *testing.T) {
	var lines []string
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	h.ctrl.cfg.Logf = func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no log lines emitted")
	}
}

func TestAuditReportsDeadDevice(t *testing.T) {
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	// Kill the WSS on the active path: the audit must surface the outage
	// as an error rather than report a clean network.
	h.wss["f1"].Close()
	if _, err := h.ctrl.Audit(); err == nil {
		t.Error("audit succeeded against a dead WSS")
	}
}
