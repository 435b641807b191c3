package controller

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/parallel"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/telemetry"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Config assembles the controller's global view: both topology layers,
// the hardware family, and the spectrum grid.
type Config struct {
	Optical *topology.Optical
	IP      *topology.IPTopology
	Catalog transponder.Catalog
	Grid    spectrum.Grid
	// K is the candidate-path count for planning and restoration.
	K int
	// Epsilon is the planning objective's spectrum weight.
	Epsilon float64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...interface{})
}

// channelState tracks one live wavelength and the hardware carrying it.
type channelState struct {
	wavelength plan.Wavelength
	txA, txB   string // transponder device IDs at the two ends
}

// Controller is the centralized optical controller.
type Controller struct {
	cfg    Config
	devmgr *DevMgr

	// pushWorkers bounds the concurrent push fan-out (see
	// SetPushWorkers); atomic so the push engine can read it whether or
	// not the caller holds mu.
	pushWorkers atomic.Int64

	mu sync.Mutex
	// channels maps channel name ("link:seq") → live state.
	channels map[string]*channelState
	// wssConfig accumulates the passband document per fiber.
	wssConfig map[string]devmodel.WSSConfig
	// downFibers tracks fibers currently marked cut.
	downFibers map[string]bool
	// basePlan is the last applied planning result.
	basePlan *plan.Result
	// seq numbers channels per link.
	seq map[string]int
	// playbook holds precomputed restoration plans per fiber (§4.4).
	playbook map[string]*restore.Result
	// store, when non-nil, receives one immutable ConfigVersion per
	// state-changing action (see store.go); actor names who drove it.
	store ConfigStore
	actor string
}

// New builds a controller. Devices are added via DevMgr().Register.
func New(cfg Config) (*Controller, error) {
	if cfg.Optical == nil || cfg.IP == nil {
		return nil, fmt.Errorf("controller: nil topology")
	}
	if len(cfg.Catalog.Modes) == 0 {
		return nil, fmt.Errorf("controller: empty catalog")
	}
	if cfg.Grid.Pixels <= 0 {
		return nil, fmt.Errorf("controller: invalid grid")
	}
	return &Controller{
		cfg:        cfg,
		devmgr:     NewDevMgr(),
		channels:   make(map[string]*channelState),
		wssConfig:  make(map[string]devmodel.WSSConfig),
		downFibers: make(map[string]bool),
		seq:        make(map[string]int),
	}, nil
}

// DevMgr exposes the device manager for registration.
func (c *Controller) DevMgr() *DevMgr { return c.devmgr }

// Close drops all device sessions.
func (c *Controller) Close() { c.devmgr.Close() }

func (c *Controller) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// PlanNetwork runs the network planning module (Algorithm 1 heuristic)
// against the global view and returns the result without applying it.
func (c *Controller) PlanNetwork() (*plan.Result, error) {
	p := plan.Problem{
		Optical: c.cfg.Optical,
		IP:      c.cfg.IP,
		Catalog: c.cfg.Catalog,
		Grid:    c.cfg.Grid,
		K:       c.cfg.K,
		Epsilon: c.cfg.Epsilon,
	}
	res, err := plan.Solve(p)
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(p, res); err != nil {
		return nil, fmt.Errorf("controller: planning self-check failed: %w", err)
	}
	return res, nil
}

// Apply pushes a planning result to the hardware: for every wavelength it
// claims a transponder pair, configures both ends, and installs the
// identical passband on the WSS of every fiber along the path. The push
// is coordinated per §4.3 — one source of configuration for all devices,
// so consistency and conflict-freedom hold network-wide — and pipelined:
// the full per-device document set is built first, then pushed
// concurrently, one batched RPC per device.
func (c *Controller) Apply(res *plan.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Phase 1 — claim hardware and build the complete per-device
	// document set without touching the wire. Claims are all-or-nothing:
	// an exhausted pool releases everything claimed here and changes no
	// state.
	type chanRec struct {
		name     string
		w        plan.Wavelength
		txA, txB string
	}
	var chans []chanRec
	var claims []string
	releaseClaims := func() {
		for _, id := range claims {
			c.devmgr.ReleaseTransponder(id)
		}
	}
	txPlan := newPushPlan()
	for _, w := range res.Wavelengths {
		c.seq[w.LinkID]++
		channel := fmt.Sprintf("%s:%d", w.LinkID, c.seq[w.LinkID])
		txA, err := c.devmgr.ClaimTransponder(string(w.Path.Src()), channel)
		if err != nil {
			releaseClaims()
			return err
		}
		claims = append(claims, txA)
		txB, err := c.devmgr.ClaimTransponder(string(w.Path.Dst()), channel)
		if err != nil {
			releaseClaims()
			return err
		}
		claims = append(claims, txB)
		cfg := transponderConfig(w, channel)
		txPlan.add(txA, cfg, channel)
		txPlan.add(txB, cfg, channel)
		chans = append(chans, chanRec{name: channel, w: w, txA: txA, txB: txB})
	}

	// Phase 2 — concurrent transponder push. A channel with a failed
	// endpoint is unwound: the endpoint that did take the enabled
	// document is pushed a disable (best-effort — never leave a device
	// lit on spectrum the controller does not track), and the pair goes
	// back to the pool.
	errs := c.executePush(txPlan)
	var firstErr error
	for _, rec := range chans {
		errA, errB := errs[rec.txA], errs[rec.txB]
		if errA == nil && errB == nil {
			for _, fiber := range rec.w.Path.Fibers {
				wc := c.wssConfig[fiber]
				wc.Passbands = append(wc.Passbands, devmodel.Passband{
					Channel: rec.name,
					Start:   rec.w.Interval.Start,
					Count:   rec.w.Interval.Count,
				})
				c.wssConfig[fiber] = wc
			}
			c.channels[rec.name] = &channelState{wavelength: rec.w, txA: rec.txA, txB: rec.txB}
			continue
		}
		if firstErr == nil {
			id, err := rec.txA, errA
			if err == nil {
				id, err = rec.txB, errB
			}
			firstErr = fmt.Errorf("controller: configuring %s for %s: %w", id, rec.name, err)
		}
		if errA == nil {
			c.disableTransponder(rec.txA, rec.name)
		}
		if errB == nil {
			c.disableTransponder(rec.txB, rec.name)
		}
		c.devmgr.ReleaseTransponder(rec.txA)
		c.devmgr.ReleaseTransponder(rec.txB)
	}

	// Phase 3 — concurrent WSS push for every committed channel, so the
	// surviving configuration is consistent end to end even when some
	// channels were unwound.
	if err := c.pushWSSLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return firstErr
	}
	c.basePlan = res
	c.logf("controller: applied plan with %d wavelengths over %d links",
		len(res.Wavelengths), len(res.PerLink))
	c.recordLocked("apply", fmt.Sprintf("applied plan: %d wavelengths over %d links",
		len(res.Wavelengths), len(res.PerLink)))
	return nil
}

// disableTransponder pushes a disable document to a transponder whose
// channel failed to materialize — the unwind path. Best-effort: an
// unreachable device is already dark, so failure is only logged.
func (c *Controller) disableTransponder(id, channel string) {
	if err := c.editConfig(id, devmodel.TransponderConfig{Enabled: false}); err != nil {
		c.logf("controller: unwinding %s for %s (degraded, device stays dark): %v", id, channel, err)
	}
}

// transponderConfig builds the standard config document for a wavelength.
func transponderConfig(w plan.Wavelength, channel string) devmodel.TransponderConfig {
	return devmodel.TransponderConfig{
		Enabled:       true,
		DataRateGbps:  w.Mode.DataRateGbps,
		SpacingGHz:    w.Mode.SpacingGHz,
		BaudGBd:       w.Mode.BaudGBd,
		Modulation:    w.Mode.Modulation.Name,
		FEC:           w.Mode.FEC.Name,
		IntervalStart: w.Interval.Start,
		IntervalCount: w.Interval.Count,
		PathFibers:    append([]string(nil), w.Path.Fibers...),
		Channel:       channel,
	}
}

// pushWSSLocked pushes every fiber's accumulated passband document to
// its WSS, returning the first failure (remaining fibers are still
// pushed). Callers hold c.mu.
func (c *Controller) pushWSSLocked() error {
	var firstErr error
	err := c.pushWSSDegradedLocked(func(wssID string, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("controller: configuring WSS %s: %w", wssID, err)
		}
	})
	if err != nil {
		return err
	}
	return firstErr
}

// pushWSSDegradedLocked pushes every fiber's accumulated passband
// document to its WSS — concurrently, one document per device —
// reporting unreachable devices through skip (invoked in sorted device
// order) instead of aborting. A fiber with no registered WSS is still an
// error: that is a deployment wiring bug, not an outage. Callers hold
// c.mu.
func (c *Controller) pushWSSDegradedLocked(skip func(deviceID string, err error)) error {
	plan, err := c.wssPlanLocked()
	if err != nil {
		return err
	}
	errs := c.executePush(plan)
	for _, id := range plan.devices() {
		if errs[id] != nil {
			skip(id, errs[id])
		}
	}
	return nil
}

// wssPlanLocked builds the per-WSS push plan from the accumulated
// passband intent: each WSS gets its fiber's full document. Callers
// hold c.mu.
func (c *Controller) wssPlanLocked() (*pushPlan, error) {
	fibers := make([]string, 0, len(c.wssConfig))
	for f := range c.wssConfig {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	plan := newPushPlan()
	for _, fiber := range fibers {
		wssID, ok := c.devmgr.WSSForFiber(fiber)
		if !ok {
			return nil, fmt.Errorf("controller: no WSS registered for fiber %s", fiber)
		}
		cfg := c.wssConfig[fiber]
		sort.Slice(cfg.Passbands, func(i, j int) bool { return cfg.Passbands[i].Start < cfg.Passbands[j].Start })
		plan.add(wssID, cfg, "")
	}
	return plan, nil
}

// editConfig pushes one configuration document through the retrying,
// reconnecting DevMgr.Call path.
func (c *Controller) editConfig(deviceID string, cfg interface{}) error {
	return c.devmgr.Call(deviceID, netconf.OpEditConfig, cfg, nil)
}

// CurrentPlan synthesizes a plan.Result from the live channels — the
// same view restoration solves against. Drills use it to run the offline
// restoration oracle on exactly the state the controller will see.
func (c *Controller) CurrentPlan() *plan.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentPlanLocked()
}

// ChannelInfo describes one live channel and its hardware binding.
type ChannelInfo struct {
	Name       string
	Wavelength plan.Wavelength
	TxA, TxB   string
}

// LiveChannels returns every live channel with its wavelength and
// transponder pair, sorted by name.
func (c *Controller) LiveChannels() []ChannelInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChannelInfo, 0, len(c.channels))
	for name, st := range c.channels {
		out = append(out, ChannelInfo{Name: name, Wavelength: st.wavelength, TxA: st.txA, TxB: st.txB})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Channels returns the live channel names, sorted.
func (c *Controller) Channels() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.channels))
	for ch := range c.channels {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}

// LiveCapacityGbps sums the data rates of live channels per IP link.
func (c *Controller) LiveCapacityGbps() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int)
	for _, st := range c.channels {
		out[st.wavelength.LinkID] += st.wavelength.Mode.DataRateGbps
	}
	return out
}

// AuditReport is the outcome of a network-wide configuration audit.
type AuditReport struct {
	ChannelsChecked int
	// Inconsistencies lists channels whose transponder spectrum and WSS
	// passbands disagree somewhere along the path (Figure 5a failures).
	Inconsistencies []string
	// Conflicts lists fiber pixels claimed by more than one channel
	// (Figure 5b failures).
	Conflicts []string
}

// Clean reports a fully consistent, conflict-free configuration.
func (r AuditReport) Clean() bool {
	return len(r.Inconsistencies) == 0 && len(r.Conflicts) == 0
}

// Audit reads back the configuration of every device and verifies the two
// §4.3 invariants: channel consistency (the wavelength's spectrum equals
// the passband on every fiber of its path, end to end) and channel
// conflict freedom (no pixel of any fiber serves two channels). This is
// the check behind the paper's "zero spectrum inconsistency and conflict"
// operational result.
func (c *Controller) Audit() (AuditReport, error) {
	c.mu.Lock()
	channels := make(map[string]*channelState, len(c.channels))
	for k, v := range c.channels {
		channels[k] = v
	}
	c.mu.Unlock()

	var report AuditReport
	report.ChannelsChecked = len(channels)

	// Collect the read set — each distinct fiber's WSS and every channel
	// endpoint with a registered descriptor — then fan the get-config
	// reads out concurrently, one session per device. Errors surface in
	// sorted device order, so a dead device fails the audit
	// deterministically.
	fibers := make([]string, 0)
	fiberSeen := make(map[string]bool)
	for _, st := range channels {
		for _, fiber := range st.wavelength.Path.Fibers {
			if !fiberSeen[fiber] {
				fiberSeen[fiber] = true
				fibers = append(fibers, fiber)
			}
		}
	}
	sort.Strings(fibers)
	for _, fiber := range fibers {
		if _, ok := c.devmgr.WSSForFiber(fiber); !ok {
			return report, fmt.Errorf("controller: no WSS for fiber %s", fiber)
		}
	}
	txIDs := make([]string, 0, 2*len(channels))
	txSeen := make(map[string]bool)
	for _, st := range channels {
		for _, txID := range []string{st.txA, st.txB} {
			if txSeen[txID] {
				continue
			}
			txSeen[txID] = true
			if _, ok := c.devmgr.Descriptor(txID); ok {
				txIDs = append(txIDs, txID)
			}
		}
	}
	sort.Strings(txIDs)

	wssCfg := make(map[string]devmodel.WSSConfig)
	{
		cfgs, errs := parallel.Map(nil, c.readWorkers(len(fibers)), len(fibers),
			func(_ context.Context, i int) (devmodel.WSSConfig, error) {
				wssID, _ := c.devmgr.WSSForFiber(fibers[i])
				var cfg devmodel.WSSConfig
				err := c.devmgr.Call(wssID, netconf.OpGetConfig, nil, &cfg)
				return cfg, err
			})
		if err := parallel.First(errs); err != nil {
			return report, err
		}
		for i, fiber := range fibers {
			wssCfg[fiber] = cfgs[i]
		}
	}
	txCfg := make(map[string]devmodel.TransponderConfig)
	{
		cfgs, errs := parallel.Map(nil, c.readWorkers(len(txIDs)), len(txIDs),
			func(_ context.Context, i int) (devmodel.TransponderConfig, error) {
				var cfg devmodel.TransponderConfig
				err := c.devmgr.Call(txIDs[i], netconf.OpGetConfig, nil, &cfg)
				return cfg, err
			})
		if err := parallel.First(errs); err != nil {
			return report, err
		}
		for i, id := range txIDs {
			txCfg[id] = cfgs[i]
		}
	}

	names := make([]string, 0, len(channels))
	for name := range channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := channels[name]
		want := st.wavelength.Interval
		// Transponder ends must carry the same spectrum.
		consistent := true
		for _, txID := range []string{st.txA, st.txB} {
			cfg, ok := txCfg[txID]
			if !ok {
				consistent = false
				continue
			}
			if cfg.Interval() != want || !cfg.Enabled {
				consistent = false
			}
		}
		// Every fiber's WSS must pass exactly the same interval.
		for _, fiber := range st.wavelength.Path.Fibers {
			pb, ok := wssCfg[fiber].Find(name)
			if !ok || pb.Interval() != want {
				consistent = false
			}
		}
		if !consistent {
			report.Inconsistencies = append(report.Inconsistencies, name)
		}
	}

	// Conflict check: per fiber, passbands must be pairwise disjoint.
	for _, fiber := range fibers {
		pbs := wssCfg[fiber].Passbands
		for i := range pbs {
			for j := i + 1; j < len(pbs); j++ {
				if pbs[i].Interval().Overlaps(pbs[j].Interval()) {
					report.Conflicts = append(report.Conflicts,
						fmt.Sprintf("%s: %s vs %s", fiber, pbs[i].Channel, pbs[j].Channel))
				}
			}
		}
	}
	return report, nil
}

// currentPlanLocked synthesizes a plan.Result from the live channels, so
// restoration always runs against what the network is actually carrying.
// Callers hold c.mu.
func (c *Controller) currentPlanLocked() *plan.Result {
	res := &plan.Result{
		PerLink:   make(map[string]plan.LinkPlan),
		Allocator: spectrum.NewAllocator(c.cfg.Grid),
	}
	names := make([]string, 0, len(c.channels))
	for name := range c.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := c.channels[name]
		res.Wavelengths = append(res.Wavelengths, st.wavelength)
		lp := res.PerLink[st.wavelength.LinkID]
		lp.Wavelengths++
		lp.ProvisionedGbps += st.wavelength.Mode.DataRateGbps
		res.PerLink[st.wavelength.LinkID] = lp
	}
	return res
}

// RestoreReport is the full outcome of handling one fiber event: the
// restoration result, the latency breakdown of the recovery path, and
// the devices the degraded push had to skip. The chaos drill engine
// (internal/chaos) scores recovery with these numbers.
type RestoreReport struct {
	// Event is the telemetry event that triggered the handling (zero
	// when HandleFiberCutReport was invoked directly).
	Event telemetry.Event
	// Result is the restoration outcome; nil on fiber-restored events.
	Result *restore.Result
	// Playbook reports whether a precomputed plan short-circuited the
	// live solve.
	Playbook bool
	// SolveTime and PushTime split the recovery latency into computing
	// the restoration plan and pushing it to the hardware.
	SolveTime time.Duration
	PushTime  time.Duration
	// PushTxTime and PushWSSTime break PushTime into its two pipeline
	// phases: the concurrent transponder push (teardown + retune, one
	// batched RPC per device) and the concurrent WSS passband push.
	PushTxTime  time.Duration
	PushWSSTime time.Duration
	// SkippedDevices lists devices that stayed unreachable through the
	// retry policy during the push — the degraded-mode escape hatch:
	// restoration proceeds for every vendor that answers, and the
	// audit/Repair loop reconverges the stragglers once they return.
	SkippedDevices []string
	// PendingChannels lists channels whose intended configuration is
	// recorded but not fully pushed because an endpoint was skipped.
	PendingChannels []string
}

// Degraded reports whether any device was skipped during the push.
func (r *RestoreReport) Degraded() bool { return len(r.SkippedDevices) > 0 }

// HandleFiberCut runs the optical restoration module for a detected cut
// and returns the restoration result for reporting. It is
// HandleFiberCutReport without the latency/degradation detail.
func (c *Controller) HandleFiberCut(fiber string) (*restore.Result, error) {
	rep, err := c.HandleFiberCutReport(fiber)
	if err != nil {
		return nil, err
	}
	return rep.Result, nil
}

// HandleFiberCutReport runs the optical restoration module for a
// detected cut: it computes the restoration plan (playbook hit or live
// solve), retunes the affected transponder pairs onto their new
// paths/modes/spectrum, and updates the WSS passbands along both old and
// new paths. The push is degraded-mode: a device that stays unreachable
// through the retry policy is skipped and reported rather than aborting
// the restoration of every other channel; the controller still records
// the full intended state, so a later Repair converges the skipped
// devices once they come back.
func (c *Controller) HandleFiberCutReport(fiber string) (*RestoreReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.downFibers[fiber] {
		return nil, fmt.Errorf("controller: fiber %s already marked down", fiber)
	}
	// Refuse an unknown fiber before marking it: a stale mark would join
	// every later cut and fail each live restoration.
	if _, ok := c.cfg.Optical.Fiber(fiber); !ok {
		return nil, fmt.Errorf("controller: cut report for unknown fiber %q", fiber)
	}
	c.downFibers[fiber] = true
	cut := make([]string, 0, len(c.downFibers))
	for f := range c.downFibers {
		cut = append(cut, f)
	}
	sort.Strings(cut)

	rep := &RestoreReport{}
	solveStart := time.Now()
	if pre, ok := c.playbookEntryLocked(fiber); ok {
		rep.Result = pre
		rep.Playbook = true
		c.logf("controller: applying precomputed restoration plan for %s", fiber)
	} else {
		base := c.currentPlanLocked()
		live, err := restore.Solve(restore.Problem{
			Optical:  c.cfg.Optical,
			IP:       c.cfg.IP,
			Catalog:  c.cfg.Catalog,
			Grid:     c.cfg.Grid,
			Base:     base,
			Scenario: restore.Scenario{ID: "live-" + fiber, CutFibers: cut},
			K:        c.cfg.K,
		})
		if err != nil {
			return nil, err
		}
		rep.Result = live
	}
	rep.SolveTime = time.Since(solveStart)
	res := rep.Result

	pushStart := time.Now()
	skipped := make(map[string]bool)
	skip := func(deviceID string, err error) {
		if !skipped[deviceID] {
			skipped[deviceID] = true
			rep.SkippedDevices = append(rep.SkippedDevices, deviceID)
		}
		c.logf("controller: degraded push: skipping %s: %v", deviceID, err)
	}

	// Build the full per-device document set first: teardown documents
	// for every failed channel, then retune documents for the restored
	// ones re-provisioned on their original hardware (the "spare
	// transponders whose original wavelengths are passing through the
	// cut fiber", §8). A transponder torn down and immediately retuned
	// gets both documents in one batched RPC, applied in order.
	failedNames := c.failedChannelsLocked(cut)
	type hw struct{ txA, txB string }
	spares := make(map[string][]hw) // linkID → freed transponder pairs
	txPlan := newPushPlan()
	off := devmodel.TransponderConfig{Enabled: false}
	for _, name := range failedNames {
		st := c.channels[name]
		c.removePassbandsLocked(name, st.wavelength.Path.Fibers)
		delete(c.channels, name)
		spares[st.wavelength.LinkID] = append(spares[st.wavelength.LinkID], hw{st.txA, st.txB})
		// Disable both ends; a dark transponder stops alarming. An
		// unreachable end is already dark — it is skipped and reported.
		txPlan.add(st.txA, off, "")
		txPlan.add(st.txB, off, "")
	}

	for _, r := range res.Restored {
		pool := spares[r.LinkID]
		if len(pool) == 0 {
			return nil, fmt.Errorf("controller: restoration for %s needs more transponders than failed", r.LinkID)
		}
		pair := pool[0]
		spares[r.LinkID] = pool[1:]
		c.seq[r.LinkID]++
		channel := fmt.Sprintf("%s:%d", r.LinkID, c.seq[r.LinkID])
		w := plan.Wavelength{
			LinkID:   r.LinkID,
			Path:     r.Path,
			Mode:     r.Mode,
			Interval: r.Interval,
		}
		cfg := transponderConfig(w, channel)
		txPlan.add(pair.txA, cfg, channel)
		txPlan.add(pair.txB, cfg, channel)
		// Record the full intent even when an endpoint ends up skipped:
		// Repair re-pushes exactly this state once the device returns.
		for _, f := range w.Path.Fibers {
			wc := c.wssConfig[f]
			wc.Passbands = append(wc.Passbands, devmodel.Passband{
				Channel: channel, Start: w.Interval.Start, Count: w.Interval.Count,
			})
			c.wssConfig[f] = wc
		}
		c.channels[channel] = &channelState{wavelength: w, txA: pair.txA, txB: pair.txB}
	}
	// Unused spares go back to the pool.
	for _, pool := range spares {
		for _, pair := range pool {
			c.devmgr.ReleaseTransponder(pair.txA)
			c.devmgr.ReleaseTransponder(pair.txB)
		}
	}

	// Push the transponder pipelines concurrently; devices that stay
	// unreachable through the retry policy are skipped and reported in
	// sorted device order, and the channels they should have lit are
	// surfaced as pending for Repair to converge.
	txErrs := c.executePush(txPlan)
	for _, id := range txPlan.devices() {
		if txErrs[id] != nil {
			skip(id, txErrs[id])
		}
	}
	rep.PendingChannels = append(rep.PendingChannels, txPlan.pendingChannels(txErrs)...)
	rep.PushTxTime = time.Since(pushStart)

	wssStart := time.Now()
	if err := c.pushWSSDegradedLocked(skip); err != nil {
		return nil, err
	}
	rep.PushWSSTime = time.Since(wssStart)
	rep.PushTime = time.Since(pushStart)
	sort.Strings(rep.SkippedDevices)
	c.logf("controller: fiber %s cut — restored %d/%d Gbps over %d channels (%d devices skipped)",
		fiber, res.RestoredGbps, res.AffectedGbps, len(res.Restored), len(rep.SkippedDevices))
	c.recordLocked("restore", fmt.Sprintf("fiber %s cut: restored %d/%d Gbps over %d channels",
		fiber, res.RestoredGbps, res.AffectedGbps, len(res.Restored)))
	return rep, nil
}

// HandleFiberRestored clears the down mark of a fiber whose light came
// back — the other half of the telemetry loop, and what keeps a
// flapping fiber from polluting every later restoration solve with a
// stale cut. Channels moved off the fiber stay where they are (reversion
// is a planned maintenance action, not a reflex). It reports whether the
// fiber was marked down.
func (c *Controller) HandleFiberRestored(fiber string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.downFibers[fiber] {
		return false
	}
	delete(c.downFibers, fiber)
	c.logf("controller: fiber %s back in service", fiber)
	c.recordLocked("fiber-restored", fmt.Sprintf("fiber %s back in service", fiber))
	return true
}

// failedChannelsLocked lists channels whose path crosses any cut fiber.
func (c *Controller) failedChannelsLocked(cut []string) []string {
	cutSet := make(map[string]bool, len(cut))
	for _, f := range cut {
		cutSet[f] = true
	}
	var out []string
	for name, st := range c.channels {
		for _, f := range st.wavelength.Path.Fibers {
			if cutSet[f] {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// removePassbandsLocked strips the channel's passband from the given
// fibers' accumulated configs.
func (c *Controller) removePassbandsLocked(channel string, fibers []string) {
	for _, f := range fibers {
		wc := c.wssConfig[f]
		kept := wc.Passbands[:0]
		for _, pb := range wc.Passbands {
			if pb.Channel != channel {
				kept = append(kept, pb)
			}
		}
		wc.Passbands = kept
		c.wssConfig[f] = wc
	}
}

// Watch consumes fiber events from the data stream and drives restoration
// until the events channel closes. Each handled event is reported through
// the callback (which may be nil).
func (c *Controller) Watch(events <-chan telemetry.Event, onRestore func(*restore.Result)) {
	c.WatchContext(context.Background(), events, func(rep *RestoreReport) {
		if rep.Result != nil && onRestore != nil {
			onRestore(rep.Result)
		}
	})
}

// WatchContext consumes fiber events from the data stream and drives
// restoration until the events channel closes or the context is
// cancelled — the cancellable form drills and operator tooling use to
// shut the loop down without leaking the goroutine. Fiber-cut events run
// HandleFiberCutReport; fiber-restored events clear the down mark. Each
// handled event produces one report through the callback (which may be
// nil); fiber-restored reports carry a nil Result.
func (c *Controller) WatchContext(ctx context.Context, events <-chan telemetry.Event, onReport func(*RestoreReport)) {
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			switch ev.Kind {
			case "fiber-cut":
				rep, err := c.HandleFiberCutReport(ev.Fiber)
				if err != nil {
					c.logf("controller: restoration for %s failed: %v", ev.Fiber, err)
					continue
				}
				rep.Event = ev
				if onReport != nil {
					onReport(rep)
				}
			case "fiber-restored":
				if !c.HandleFiberRestored(ev.Fiber) {
					continue
				}
				if onReport != nil {
					onReport(&RestoreReport{Event: ev})
				}
			}
		}
	}
}

// SetPlaybook installs precomputed restoration plans keyed by fiber ID —
// §4.4's offline pre-computation ("the restoration plan for each fiber
// cut scenario can be produced offline"). HandleFiberCut consults the
// playbook before solving live: if an entry exists for the cut fiber and
// the network still matches the state the plan was computed against (no
// prior failures), it is applied directly, shaving the solver latency off
// the recovery path.
func (c *Controller) SetPlaybook(plans map[string]*restore.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.playbook = plans
}

// playbookEntryLocked returns the precomputed plan for the fiber when it
// is still applicable. Callers hold c.mu.
func (c *Controller) playbookEntryLocked(fiber string) (*restore.Result, bool) {
	if c.playbook == nil {
		return nil, false
	}
	// A precomputed plan assumed the full pre-failure network; once any
	// other fiber is already down, the live solver must run instead.
	if len(c.downFibers) > 1 {
		return nil, false
	}
	res, ok := c.playbook[fiber]
	return res, ok
}
