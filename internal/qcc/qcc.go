package qcc

import (
	"context"
	"math"
	"sync"

	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Config wires a QCC instance.
type Config struct {
	// Clock is the shared virtual clock.
	Clock *simclock.Clock
	// MW is the production meta-wrapper QCC instruments.
	MW           *metawrapper.MetaWrapper
	Calibration  CalibrationConfig
	Availability AvailabilityConfig
	Cycle        CycleConfig
	// Routing is the route policy Attach installs in the integrator.
	Routing router.Policy
	// Telemetry, when non-nil and enabled, receives calibration timelines,
	// per-server factor gauges and fence/rotation/reroute counters.
	Telemetry *telemetry.Telemetry
	// DisableDaemons skips scheduling the availability and recalibration
	// daemons; tests and harnesses then drive PublishNow/ProbeNow manually.
	DisableDaemons bool
}

// CostPolicy lets deployments fold business logic into the calibrated cost
// of a (server, fragment) pair — §3.5: the transparent design allows
// "customizing cost functions for different business applications that may
// demand incorporation of unique business logic, such as QoS goal and
// reliability, outside of DB2 and II". The policy runs LAST, after load,
// network, reliability and availability calibration; returning +Inf bans
// the server for the fragment.
type CostPolicy func(serverID string, est remote.CostEstimate) remote.CostEstimate

// QCC is the Query Cost Calibrator. It implements metawrapper.Observer,
// metawrapper.Calibrator, optimizer.IICalibrator and
// integrator.IIMergeObserver, and feeds the route policy its signals.
type QCC struct {
	clock *simclock.Clock
	mw    *metawrapper.MetaWrapper

	Calib *Calibration
	Rel   *Reliability
	Avail *Availability
	Cycle *CycleController
	// Router is the route policy SetRouting last installed.
	Router *router.Router

	tel *telemetry.Telemetry

	policyMu sync.RWMutex
	policy   CostPolicy

	demandMu sync.RWMutex
	demand   DemandSource

	mu       sync.Mutex
	cancels  []simclock.Cancel
	compiles int64
	runs     int64
	errors   int64
}

// DemandSource reports pending admission demand (queued queries not yet
// executing); the admission controller's QueueDepth is the canonical one.
type DemandSource func() int

// New builds a QCC over the given config (does not attach it yet).
func New(cfg Config) *QCC {
	calib := NewCalibration(cfg.Calibration)
	q := &QCC{
		clock: cfg.Clock,
		mw:    cfg.MW,
		Calib: calib,
		Rel:   NewReliability(),
		Avail: NewAvailability(cfg.Availability),
		Cycle: NewCycleController(cfg.Cycle, calib),
		tel:   cfg.Telemetry,
	}
	// The publish hook feeds the calibration timeline and factor gauges on
	// every recalibration cycle. It must be installed before the daemons
	// start so no publish escapes observation.
	calib.SetPublishHook(func(at simclock.Time, serverFactors map[string]float64, iiFactor float64) {
		for id, f := range serverFactors {
			q.tel.AppendFactor(at, id, f)
		}
		// The effective II factor (published × queue pressure) gets its own
		// "II" timeline series: its divergence from the qcc.ii_factor gauge
		// is exactly the admission backlog's contribution.
		effective := iiFactor * q.queuePressure()
		q.tel.AppendFactor(at, "II", effective)
		reg := q.tel.Active()
		if reg == nil {
			return
		}
		for id, f := range serverFactors {
			reg.Gauge("qcc.calibration_factor", id).Set(f)
		}
		reg.Gauge("qcc.ii_factor", "").Set(iiFactor)
		reg.Gauge("qcc.ii_effective_factor", "").Set(effective)
		reg.Counter("qcc.publishes", "").Inc()
	})
	if !cfg.DisableDaemons {
		q.mu.Lock()
		q.cancels = append(q.cancels,
			q.Avail.StartDaemon(cfg.Clock, cfg.MW),
			q.Cycle.Start(cfg.Clock),
		)
		q.mu.Unlock()
	}
	return q
}

// Attach installs QCC into a federation: the meta-wrapper reports to and
// calibrates through it, and the integrator consults it for II calibration,
// merge observation and routing. This is the paper's transparent deployment:
// no optimizer code changes, only the cost surfaces.
func Attach(cfg Config, ii *integrator.II) *QCC {
	q := New(cfg)
	cfg.MW.SetObserver(q)
	cfg.MW.SetCalibrator(q)
	ii.SetIICalibrator(q)
	ii.SetMergeObserver(q)
	q.SetRouting(ii, cfg.Routing)
	return q
}

// Detach removes QCC from the meta-wrapper and stops its daemons. The
// integrator hooks are left for the caller to clear (they are harmless
// identity operations once the calibration store stops updating).
func (q *QCC) Detach() {
	q.mw.SetObserver(nil)
	q.mw.SetCalibrator(nil)
	q.Stop()
}

// Stop cancels the daemons.
func (q *QCC) Stop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, c := range q.cancels {
		c()
	}
	q.cancels = nil
}

// SetCostPolicy installs (or clears, with nil) the business-logic cost
// policy.
func (q *QCC) SetCostPolicy(p CostPolicy) {
	q.policyMu.Lock()
	defer q.policyMu.Unlock()
	q.policy = p
}

func (q *QCC) costPolicy() CostPolicy {
	q.policyMu.RLock()
	defer q.policyMu.RUnlock()
	return q.policy
}

// PublishNow forces a recalibration cycle immediately (harness hook).
func (q *QCC) PublishNow() { q.Calib.Publish(q.clock.Now()) }

// ProbeNow runs one availability-daemon sweep immediately (harness hook).
func (q *QCC) ProbeNow() {
	for _, id := range q.mw.Servers() {
		q.mw.Probe(context.Background(), id) //nolint:errcheck // outcome flows through the observer
	}
}

// Stats is a consistent snapshot of QCC's interaction counters.
type Stats struct {
	// Compiles counts compile records observed.
	Compiles int64
	// Runs counts fragment runs observed.
	Runs int64
	// Errors counts fragment errors observed.
	Errors int64
}

// StatsSnapshot returns a consistent snapshot of QCC's interaction counters:
// compiles seen, runs observed, errors recorded.
func (q *QCC) StatsSnapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Compiles: q.compiles, Runs: q.runs, Errors: q.errors}
}

// ---- metawrapper.Observer ----

// ObserveCompile implements metawrapper.Observer.
func (q *QCC) ObserveCompile(rec metawrapper.CompileRecord) {
	q.mu.Lock()
	q.compiles++
	q.mu.Unlock()
	q.tel.Active().Counter("qcc.compiles", "").Inc()
}

// ObserveRun implements metawrapper.Observer: the runtime response time is
// recorded against the compile-time estimate, success refreshes reliability
// and availability.
func (q *QCC) ObserveRun(rec metawrapper.RunRecord) {
	q.mu.Lock()
	q.runs++
	q.mu.Unlock()
	q.Calib.RecordRun(q.clock.Now(), rec.Key, rec.Est.TotalMS, float64(rec.Observed))
	if rec.FirstRow > 0 {
		// Streaming run: the first batch's arrival was observed separately,
		// so the first-tuple estimate calibrates on its own history.
		q.Calib.RecordFirstRow(q.clock.Now(), rec.Key.ServerID, rec.Est.FirstTupleMS, float64(rec.FirstRow))
	}
	q.Rel.RecordSuccess(rec.Key.ServerID)
	if q.Avail.MarkUp(rec.Key.ServerID) {
		q.tel.Active().Counter("qcc.unfences", rec.Key.ServerID).Inc()
	}
	q.noteServerHealth(rec.Key.ServerID)
	q.tel.Active().Counter("qcc.runs", "").Inc()
}

// ObserveError implements metawrapper.Observer.
func (q *QCC) ObserveError(serverID string, err error) {
	q.mu.Lock()
	q.errors++
	q.mu.Unlock()
	q.Rel.RecordFailure(serverID)
	if IsDownError(err) && q.Avail.MarkDown(serverID) {
		q.tel.Active().Counter("qcc.fences", serverID).Inc()
	}
	q.noteServerHealth(serverID)
	q.tel.Active().Counter("qcc.errors", "").Inc()
}

// ObserveProbe implements metawrapper.Observer.
func (q *QCC) ObserveProbe(serverID string, rtt simclock.Time, err error) {
	if err != nil {
		q.Rel.RecordFailure(serverID)
		if IsDownError(err) && q.Avail.MarkDown(serverID) {
			q.tel.Active().Counter("qcc.fences", serverID).Inc()
		}
		q.noteServerHealth(serverID)
		return
	}
	if q.Avail.MarkUp(serverID) {
		q.tel.Active().Counter("qcc.unfences", serverID).Inc()
	}
	q.Rel.RecordSuccess(serverID)
	q.Calib.RecordProbe(serverID, float64(rtt))
	q.noteServerHealth(serverID)
}

// noteServerHealth refreshes the per-server reliability and fence gauges
// after any observation that may have moved them.
func (q *QCC) noteServerHealth(serverID string) {
	reg := q.tel.Active()
	if reg == nil {
		return
	}
	reg.Gauge("qcc.reliability_factor", serverID).Set(q.Rel.Factor(serverID))
	fenced := 0.0
	if q.Avail.IsDown(serverID) {
		fenced = 1
	}
	reg.Gauge("qcc.fenced", serverID).Set(fenced)
}

// ---- metawrapper.Calibrator ----

// CalibrateFragment implements metawrapper.Calibrator: the calibrated cost
// = estimated cost × fragment factor × reliability factor, +Inf for fenced
// servers, and a seeded estimate for sources that provide none.
func (q *QCC) CalibrateFragment(key metawrapper.FragmentKey, est remote.CostEstimate, costKnown bool) remote.CostEstimate {
	if q.Avail.IsDown(key.ServerID) {
		est.TotalMS = math.Inf(1)
		est.FirstTupleMS = math.Inf(1)
		return est
	}
	rel := q.Rel.Factor(key.ServerID)
	if !costKnown {
		seed := q.Calib.SeedEstimate(q.clock.Now(), key)
		if seed > 0 {
			est.TotalMS = seed * rel
			est.FirstTupleMS = seed * rel * 0.1
			if est.Card == 0 {
				est.Card = 1
			}
		}
		return q.applyPolicy(key.ServerID, est)
	}
	factor := q.Calib.FragmentFactor(key) * rel
	firstFactor := factor
	if f, ok := q.Calib.FirstRowFactor(key.ServerID); ok {
		// Streaming runs observed time-to-first-row separately, so the
		// first-tuple component gets its own correction instead of
		// inheriting the total-time factor.
		firstFactor = f * rel
	}
	est.TotalMS *= factor
	est.FirstTupleMS *= firstFactor
	est.NextTupleMS *= factor
	return q.applyPolicy(key.ServerID, est)
}

func (q *QCC) applyPolicy(serverID string, est remote.CostEstimate) remote.CostEstimate {
	if p := q.costPolicy(); p != nil {
		return p(serverID, est)
	}
	return est
}

// ---- optimizer.IICalibrator / integrator.IIMergeObserver ----

// SetDemandSource installs (or clears, with nil) the pending-demand feed —
// typically the admission controller's QueueDepth. While queries wait for
// admission, the II workload factor is inflated by queuePressure so routing
// and what-if analysis see the backlog before execution does.
func (q *QCC) SetDemandSource(src DemandSource) {
	q.demandMu.Lock()
	defer q.demandMu.Unlock()
	q.demand = src
}

// queuePressure converts pending admission demand into a multiplicative
// workload inflation: 1 + router.QueuePressureGain × depth (1 when no source
// is installed). Queued demand is load the workload factor cannot see yet —
// those queries have not executed — so folding it in lets routing react to
// pressure BEFORE execution saturates.
func (q *QCC) queuePressure() float64 {
	depth := q.queueDepth()
	if depth <= 0 {
		return 1
	}
	return 1 + router.QueuePressureGain*float64(depth)
}

// queueDepth reads the pending-demand feed (0 when none is installed).
func (q *QCC) queueDepth() int {
	q.demandMu.RLock()
	src := q.demand
	q.demandMu.RUnlock()
	if src == nil {
		return 0
	}
	return src()
}

// EffectiveIIFactor is the II workload factor actually applied to merge
// estimates: the published §3.2 calibration factor scaled by current
// admission queue pressure. With no backlog it equals Calib.IIFactor().
func (q *QCC) EffectiveIIFactor() float64 {
	return q.Calib.IIFactor() * q.queuePressure()
}

// CalibrateII implements optimizer.IICalibrator (§3.2), folding admission
// queue pressure into the published workload factor.
func (q *QCC) CalibrateII(estMS float64) float64 {
	return estMS * q.EffectiveIIFactor()
}

// ObserveIIMerge implements integrator.IIMergeObserver.
func (q *QCC) ObserveIIMerge(estMS float64, observed simclock.Time) {
	q.Calib.RecordII(q.clock.Now(), estMS, float64(observed))
}

// Interface assertions.
var (
	_ metawrapper.Observer       = (*QCC)(nil)
	_ metawrapper.Calibrator     = (*QCC)(nil)
	_ optimizer.IICalibrator     = (*QCC)(nil)
	_ integrator.IIMergeObserver = (*QCC)(nil)
)
