package qcc

import (
	"context"
	"math"
	"sync"

	"repro/internal/integrator"
	"repro/internal/journal"
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

// QCC is the Query Cost Calibrator: the journal's one subscriber, a
// metawrapper.Calibrator and an optimizer.IICalibrator, and the source of the
// route policy's signals.
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

	mu      sync.Mutex
	cancels []simclock.Cancel
	// attached is true between Attach and Detach; since holds the journal's
	// totals at Attach and until those at Detach.
	attached     bool
	since, until Stats
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
		// The availability daemon probes even when no queries flow.
		probes := cfg.Clock.Every(q.Avail.cfg.ProbeInterval, func(simclock.Time) simclock.Time {
			q.ProbeNow()
			return 0
		})
		q.mu.Lock()
		q.cancels = append(q.cancels, probes, q.Cycle.Start(cfg.Clock))
		q.mu.Unlock()
	}
	return q
}

// Attach installs QCC into a federation: it subscribes to the federation's
// journal, the meta-wrapper calibrates through it, and the integrator
// consults it for II calibration and routing. This is the paper's
// transparent deployment: no optimizer code changes, only the cost surfaces.
func Attach(cfg Config, ii *integrator.II) *QCC {
	q := New(cfg)
	q.attached, q.since = true, q.totals() // q is not shared yet
	cfg.MW.Journal().Subscribe(q)
	cfg.MW.SetCalibrator(q)
	ii.SetIICalibrator(q)
	q.SetRouting(ii, cfg.Routing)
	return q
}

// Detach unsubscribes QCC from the journal, removes it from the meta-wrapper
// and stops its daemons; from then on it learns nothing. The integrator
// hooks stay for the caller to clear (DisableQCC does): until then the II
// calibrator keeps scaling merge estimates by the last published II factor,
// and the route policy keeps routing.
func (q *QCC) Detach() {
	q.mw.Journal().Subscribe(nil)
	q.mw.SetCalibrator(nil)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attached, q.until = false, q.totals()
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

// PublishNow forces a recalibration cycle immediately (harness hook).
func (q *QCC) PublishNow() { q.Calib.Publish(q.clock.Now()) }

// ProbeNow runs one availability-daemon sweep (§3.3) immediately: MW
// journals each outcome, and the journal hands it back to QCC.
func (q *QCC) ProbeNow() {
	for _, id := range q.mw.Servers() {
		q.mw.Probe(context.Background(), id) //nolint:errcheck // the outcome reaches QCC through the journal
	}
}

// Stats counts the candidate plans (Compiles), fragment runs and source
// errors the journal recorded while QCC was attached.
type Stats struct {
	Compiles, Runs, Errors int64
}

// StatsSnapshot returns the journal's candidate, run and error totals
// between Attach and Detach (or now, while attached).
func (q *QCC) StatsSnapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	end := q.until
	if q.attached {
		end = q.totals()
	}
	return Stats{Compiles: end.Compiles - q.since.Compiles, Runs: end.Runs - q.since.Runs, Errors: end.Errors - q.since.Errors}
}

// totals reads the journal's running totals.
func (q *QCC) totals() Stats {
	j := q.mw.Journal()
	return Stats{Compiles: j.Candidates.Total(), Runs: j.Runs.Total(), Errors: j.Errors.Total()}
}

// ---- journal.Subscriber ----

// OnRun learns the response time against the compile-time estimate and, for
// a streamed run, the first row against the first-tuple estimate.
func (q *QCC) OnRun(r journal.Run) {
	now := q.clock.Now()
	q.Calib.RecordRun(now, metawrapper.FragmentKey{ServerID: r.ServerID, Signature: r.Fragment}, r.EstMS, r.ObservedMS)
	if r.FirstRowMS > 0 {
		q.Calib.RecordFirstRow(now, r.ServerID, r.FirstTupleEstMS, r.FirstRowMS)
	}
	q.succeeded(r.ServerID)
}

// OnError learns from a source error; an unavailability error fences.
func (q *QCC) OnError(e journal.Error) { q.failed(e.ServerID, e.Down) }

// OnProbe learns from an availability probe: a failure as from an error, a
// success as from a run, plus the round trip for the probe-derived factor.
func (q *QCC) OnProbe(p journal.Probe) {
	if p.Err != "" {
		q.failed(p.ServerID, p.Down)
		return
	}
	q.Calib.RecordProbe(p.ServerID, p.RTTMS)
	q.succeeded(p.ServerID)
}

// OnMerge learns the II merge time against the merge estimate (§3.2).
func (q *QCC) OnMerge(m journal.Merge) {
	q.Calib.RecordII(q.clock.Now(), m.CalibratedEstMS, m.ObservedMS)
}

// succeeded records a successful interaction with the server.
func (q *QCC) succeeded(serverID string) {
	q.Rel.RecordSuccess(serverID)
	if q.Avail.MarkUp(serverID) {
		q.tel.Active().Counter("qcc.unfences", serverID).Inc()
	}
	q.noteServerHealth(serverID)
}

// failed records a failed interaction with the server, fencing it when the
// failure says it is unavailable.
func (q *QCC) failed(serverID string, down bool) {
	q.Rel.RecordFailure(serverID)
	if down && q.Avail.MarkDown(serverID) {
		q.tel.Active().Counter("qcc.fences", serverID).Inc()
	}
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
	q.policyMu.RLock()
	p := q.policy
	q.policyMu.RUnlock()
	if p != nil {
		return p(serverID, est)
	}
	return est
}

// ---- optimizer.IICalibrator ----

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

// Interface assertions.
var (
	_ journal.Subscriber     = (*QCC)(nil)
	_ metawrapper.Calibrator = (*QCC)(nil)
	_ optimizer.IICalibrator = (*QCC)(nil)
)
