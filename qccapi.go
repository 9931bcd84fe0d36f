package fedqcc

import (
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/simclock"
)

// LBMode selects how the route policy picks among a query's alternatives.
type LBMode = router.Mode

// Routing modes.
const (
	// LBOff runs the optimizer's cheapest plan.
	LBOff = router.Off
	// LBFragment rotates identical fragment plans across replicas (§4.1).
	LBFragment = router.Fragment
	// LBGlobal rotates near-optimal global plans (§4.2).
	LBGlobal = router.Global
	// LBWeighted routes every fragment with more than one candidate replica
	// to the server scoring best on
	//
	//	score = 0.3·cpu + 0.2·memory + 0.3·cache_locality + 0.2·latency
	//
	// (the Milvus adaptive-routing RFC's weights), fed by QCC's live signals (calibration and first-row factors,
	// reliability and fence state, admission queue depth) and the remote
	// servers' buffer-pool residency estimates. With a single placement per
	// fragment it never alters a plan, so replication-off federations stay
	// bit-identical.
	LBWeighted = router.Weighted
)

// RoutingStats counts what the route policy changed: queries a rotation
// moved off the cheapest plan, and fragments re-checked and switched at
// dispatch time.
type RoutingStats = router.Stats

// QCCOptions tunes the calibrator. Everything else about QCC — the
// calibration window (64 samples, 120 000 simulated ms), per-fragment
// factors, the reliability penalty (4), the queue-pressure gain (0.25) — is
// a constant.
type QCCOptions struct {
	// ProbeIntervalMS is the availability daemon cadence (default 1000).
	ProbeIntervalMS float64
	// RecalibrationMS is the initial recalibration cycle (default 500);
	// the cycle adapts dynamically unless FixedCycle is set.
	RecalibrationMS float64
	// FixedCycle disables §3.4's dynamic cycle adjustment: the cycle stays
	// at RecalibrationMS.
	FixedCycle bool
	// LoadBalance selects the routing mode (default off).
	// Calibrator.SetRouting changes it later.
	LoadBalance LBMode
	// LBCloseness is the §4 closeness band (default 0.2 = "within 20%").
	LBCloseness float64
	// RuntimeReroute enables the long-running-query extension: immediately
	// before dispatch, each fragment's compiled menu is priced again with the
	// current calibration (no remote explain), and the fragment moves when
	// its server left the menu (fenced, banned or masked) or its cost left
	// the LBCloseness band of the cheapest; under LBWeighted, when another
	// server now scores strictly better.
	RuntimeReroute bool
	// DisableDaemons skips scheduling the probe/recalibration daemons; the
	// caller then drives Calibrator.PublishNow/ProbeNow manually.
	DisableDaemons bool
}

// Calibrator is the public handle on an attached QCC.
type Calibrator struct {
	q   *qcc.QCC
	fed *Federation
}

// EnableQCC attaches a Query Cost Calibrator to the federation. Calling it
// again replaces the previous calibrator.
func (f *Federation) EnableQCC(opts QCCOptions) *Calibrator {
	if f.qcc != nil {
		f.qcc.Detach()
	}
	cfg := qcc.Config{
		Clock:        f.clock,
		MW:           f.mw,
		Calibration:  qcc.CalibrationConfig{PerFragment: true},
		Availability: qcc.AvailabilityConfig{ProbeInterval: simclock.Time(opts.ProbeIntervalMS)},
		Cycle: qcc.CycleConfig{
			Initial: simclock.Time(opts.RecalibrationMS),
			Fixed:   opts.FixedCycle,
		},
		Routing: router.Policy{
			Mode:      opts.LoadBalance,
			Closeness: opts.LBCloseness,
			Rescore:   opts.RuntimeReroute,
		},
		DisableDaemons: opts.DisableDaemons,
		Telemetry:      f.tel,
	}
	f.qcc = qcc.Attach(cfg, f.ii)
	// Queued admission demand feeds the II workload factor: pressure is
	// visible to routing while the backlog is still waiting to execute.
	f.qcc.SetDemandSource(f.adm.QueueDepth)
	return &Calibrator{q: f.qcc, fed: f}
}

// DisableQCC detaches the calibrator; the federation reverts to plain
// cost-based routing.
func (f *Federation) DisableQCC() {
	if f.qcc != nil {
		f.qcc.Detach()
		f.qcc = nil
	}
}

// ServerFactor returns the published calibration factor for a server.
func (c *Calibrator) ServerFactor(serverID string) float64 {
	return c.q.Calib.ServerFactor(serverID)
}

// IIFactor returns the published integrator workload factor.
func (c *Calibrator) IIFactor() float64 { return c.q.Calib.IIFactor() }

// EffectiveIIFactor returns the II workload factor actually applied to merge
// estimates: the published factor scaled by current admission queue pressure.
// It equals IIFactor when the admission queue is empty.
func (c *Calibrator) EffectiveIIFactor() float64 { return c.q.EffectiveIIFactor() }

// ReliabilityFactor returns the reliability multiplier for a server.
func (c *Calibrator) ReliabilityFactor(serverID string) float64 {
	return c.q.Rel.Factor(serverID)
}

// IsFenced reports whether availability tracking has fenced the server off.
func (c *Calibrator) IsFenced(serverID string) bool { return c.q.Avail.IsDown(serverID) }

// PublishNow forces a recalibration cycle.
func (c *Calibrator) PublishNow() { c.q.PublishNow() }

// ProbeNow runs one availability sweep.
func (c *Calibrator) ProbeNow() { c.q.ProbeNow() }

// RecalibrationInterval returns the current (possibly adapted) cycle length.
func (c *Calibrator) RecalibrationInterval() Time { return c.q.Cycle.Interval() }

// QCCStats counts the candidate plans, fragment runs and source errors the
// journal recorded while the calibrator was attached.
type QCCStats = qcc.Stats

// StatsSnapshot returns the journal's totals since EnableQCC (up to
// DisableQCC once disabled).
func (c *Calibrator) StatsSnapshot() QCCStats { return c.q.StatsSnapshot() }

// RoutingStats reports what the current route policy changed; SetRouting
// starts it from zero.
func (c *Calibrator) RoutingStats() RoutingStats { return c.q.Router.Stats() }

// SetRouting replaces the route policy at runtime: the mode, the rotation
// modes' closeness band (0 = the default 0.2) and whether every fragment is
// re-checked just before dispatch. RoutingStats start over, and the plan
// cache is cleared, so every statement's rotation starts at its winner.
func (c *Calibrator) SetRouting(mode LBMode, closeness float64, rescore bool) {
	c.q.SetRouting(c.fed.ii, router.Policy{Mode: mode, Closeness: closeness, Rescore: rescore})
}

// CostPolicy folds business logic (QoS goals, region preferences, cost
// ceilings) into calibrated costs. It receives the server and the fully
// calibrated total cost in ms and returns the adjusted cost; +Inf bans the
// server.
type CostPolicy func(serverID string, costMS float64) float64

// SetCostPolicy installs (or clears, with nil) the business-logic cost
// policy (§3.5).
func (c *Calibrator) SetCostPolicy(p CostPolicy) {
	if p == nil {
		c.q.SetCostPolicy(nil)
		return
	}
	c.q.SetCostPolicy(func(serverID string, est remote.CostEstimate) remote.CostEstimate {
		est.TotalMS = p(serverID, est.TotalMS)
		return est
	})
}

// PlacementRecommendation is one advised replication (the paper's
// data-placement future-work item).
type PlacementRecommendation = qcc.PlacementRecommendation

// AdvisePlacement mines the explain history and current calibration state
// and recommends replicating at most three hot, under-replicated nicknames
// onto cool servers. minFactor is the calibration factor above which a server counts
// as persistently hot (0 uses the default 1.5).
func (c *Calibrator) AdvisePlacement(minFactor float64) []PlacementRecommendation {
	return c.q.AdvisePlacement(c.fed.catalog, c.fed.ExplainLog(), minFactor)
}

// ApplyReplication executes a placement recommendation: the nickname's data
// is copied to the target server and the catalog gains the placement.
func (f *Federation) ApplyReplication(rec PlacementRecommendation) error {
	return scenario.ReplicateTable(&scenario.Scenario{
		Clock:   f.clock,
		Servers: f.servers,
		Topo:    f.topo,
		Catalog: f.catalog,
		MW:      f.mw,
		IINode:  f.iiNode,
		II:      f.ii,
	}, rec.Nickname, rec.From, rec.To)
}

// WhatIf builds the simulated federated system (§2): a statistics-only
// clone used to derive alternative plans without touching production data.
func (c *Calibrator) WhatIf() (*WhatIf, error) {
	sf, err := qcc.NewSimulatedFederation(c.fed.servers, c.fed.topo, c.fed.catalog, c.fed.iiNode, c.q)
	if err != nil {
		return nil, err
	}
	return &WhatIf{sf: sf}, nil
}

// WhatIf is the public handle on the simulated federated system.
type WhatIf struct {
	sf *qcc.SimulatedFederation
}

// EnumeratePlans derives up to topK alternative global plans with calibrated
// costs, executing nothing.
func (w *WhatIf) EnumeratePlans(sql string, topK int) ([]*PlanInfo, error) {
	stmt, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	plans, err := w.sf.Enumerate(stmt, topK)
	if err != nil {
		return nil, err
	}
	out := make([]*PlanInfo, len(plans))
	for i, gp := range plans {
		out[i] = planInfo(gp)
	}
	return out, nil
}

// EnumerateByMasking reproduces §4.2's explain-with-masking trick and
// reports how many explain runs it used.
func (w *WhatIf) EnumerateByMasking(sql string) ([]*PlanInfo, int, error) {
	stmt, err := parseSQL(sql)
	if err != nil {
		return nil, 0, err
	}
	plans, runs, err := w.sf.EnumerateByMasking(stmt)
	if err != nil {
		return nil, runs, err
	}
	out := make([]*PlanInfo, len(plans))
	for i, gp := range plans {
		out[i] = planInfo(gp)
	}
	return out, runs, nil
}
