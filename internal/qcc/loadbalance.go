package qcc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/telemetry"
)

// LBMode selects the load-distribution level (§4).
type LBMode int

const (
	// LBOff disables load distribution: the optimizer's winner always runs.
	LBOff LBMode = iota
	// LBFragment rotates exchangeable fragment plans: identical physical
	// plans on different servers with close calibrated costs (§4.1).
	LBFragment
	// LBGlobal rotates whole global plans: per-server-set pruning, then
	// round robin over plans within the closeness band (§4.2).
	LBGlobal
)

// String names the mode.
func (m LBMode) String() string {
	switch m {
	case LBFragment:
		return "fragment"
	case LBGlobal:
		return "global"
	default:
		return "off"
	}
}

// LBConfig tunes the load balancer.
type LBConfig struct {
	Mode LBMode
	// Closeness is the relative cost band for exchangeable plans (paper:
	// "within 20%"; default 0.2).
	Closeness float64
	// WorkloadThreshold is the minimum workload (calibrated cost ×
	// frequency, in ms per period) before a query is load-distributed
	// ("must be greater than a preset threshold value"). Default 0: always.
	WorkloadThreshold float64
	// Period is the workload accounting window (default 5000 ms).
	Period simclock.Time
	// RefreshInterval bounds rotation-set staleness ("the process is
	// repeated periodically as calibrated costs may change"; default 2000).
	RefreshInterval simclock.Time
	// MaxAlternatives caps the rotation set size (default 4).
	MaxAlternatives int
}

func (c *LBConfig) fill() {
	if c.Closeness == 0 {
		c.Closeness = 0.2
	}
	if c.Period <= 0 {
		c.Period = 5000
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 2000
	}
	if c.MaxAlternatives <= 0 {
		c.MaxAlternatives = 4
	}
}

// EnumerateFunc produces ranked executable global plans for a statement;
// the production implementation is the real optimizer's Enumerate.
type EnumerateFunc func(stmt *sqlparser.SelectStmt, topK int) ([]*optimizer.GlobalPlan, error)

type rotation struct {
	plans     []*optimizer.GlobalPlan
	idx       int
	derivedAt simclock.Time
}

type usage struct {
	windowStart simclock.Time
	count       int
	costSum     float64
}

// LoadBalancer implements integrator.RoutePolicy: it decides, per query,
// whether to run the optimizer's winner or the next plan in a round-robin
// rotation set.
type LoadBalancer struct {
	mu        sync.Mutex
	cfg       LBConfig
	clock     *simclock.Clock
	enumerate EnumerateFunc
	rotations map[string]*rotation
	usages    map[string]*usage
	// rotatedCount counts times an alternative (non-winner) plan was chosen.
	rotatedCount int
	tel          *telemetry.Telemetry
	// log receives per-decision records (nil-safe; shared with the
	// weighted router so \route shows one merged history).
	log *router.DecisionLog
}

// NewLoadBalancer builds the balancer.
func NewLoadBalancer(cfg LBConfig, clock *simclock.Clock, enumerate EnumerateFunc) *LoadBalancer {
	cfg.fill()
	return &LoadBalancer{
		cfg:       cfg,
		clock:     clock,
		enumerate: enumerate,
		rotations: map[string]*rotation{},
		usages:    map[string]*usage{},
	}
}

// SetTelemetry installs the observability subsystem: routing decisions feed
// the per-server-set rotation distribution. Nil disables.
func (lb *LoadBalancer) SetTelemetry(t *telemetry.Telemetry) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.tel = t
}

// SetDecisionLog installs the shared routing decision log (nil disables).
func (lb *LoadBalancer) SetDecisionLog(l *router.DecisionLog) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.log = l
}

// Rotations reports how often an alternative plan was substituted.
func (lb *LoadBalancer) Rotations() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.rotatedCount
}

// RefreshInterval returns the resolved rotation refresh interval (defaults
// applied). The integrator's plan cache aligns its staleness bound with
// this, so a cached compilation never outlives the rotation epoch its
// routing was derived under.
func (lb *LoadBalancer) RefreshInterval() simclock.Time {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.cfg.RefreshInterval
}

// SetMode changes the balancing mode at runtime (rotation sets reset).
func (lb *LoadBalancer) SetMode(mode LBMode) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.cfg.Mode = mode
	lb.rotations = map[string]*rotation{}
}

// ChooseGlobal implements the routing decision.
func (lb *LoadBalancer) ChooseGlobal(queryText string, winner *optimizer.GlobalPlan) *optimizer.GlobalPlan {
	lb.mu.Lock()
	mode := lb.cfg.Mode
	now := lb.clock.Now()

	u := lb.usages[queryText]
	if u == nil || now-u.windowStart > lb.cfg.Period {
		u = &usage{windowStart: now}
		lb.usages[queryText] = u
	}
	u.count++
	u.costSum += winner.TotalEstMS
	workload := u.costSum
	lb.mu.Unlock()

	if mode == LBOff {
		return winner
	}
	if lb.cfg.WorkloadThreshold > 0 && workload < lb.cfg.WorkloadThreshold {
		return winner
	}

	lb.mu.Lock()
	rot := lb.rotations[queryText]
	stale := rot == nil || now-rot.derivedAt > lb.cfg.RefreshInterval
	lb.mu.Unlock()

	if stale {
		plans := lb.derive(winner, mode)
		lb.mu.Lock()
		rot = &rotation{plans: plans, derivedAt: now}
		lb.rotations[queryText] = rot
		lb.mu.Unlock()
	}

	lb.mu.Lock()
	defer lb.mu.Unlock()
	if rot == nil || len(rot.plans) <= 1 {
		lb.log.Record(router.Decision{
			At: now, Query: queryText, Policy: "lb",
			Route:  winner.RouteKey(),
			Reason: "kept winner (no rotation set)",
		})
		return winner
	}
	pos := rot.idx % len(rot.plans)
	chosen := rot.plans[pos]
	rot.idx++
	if reg := lb.tel.Active(); reg != nil {
		reg.Counter("qcc.lb_choices", chosen.ServerSetKey()).Inc()
	}
	reason := fmt.Sprintf("round-robin %d/%d (winner)", pos+1, len(rot.plans))
	if chosen.RouteKey() != winner.RouteKey() {
		lb.rotatedCount++
		lb.tel.Active().Counter("qcc.rotations", "").Inc()
		reason = fmt.Sprintf("round-robin %d/%d (rotated off winner)", pos+1, len(rot.plans))
	}
	lb.log.Record(router.Decision{
		At: now, Query: queryText, Policy: "lb",
		Route:  chosen.RouteKey(),
		Reason: reason,
	})
	return chosen
}

// derive builds the rotation set for a winner under the given mode.
func (lb *LoadBalancer) derive(winner *optimizer.GlobalPlan, mode LBMode) []*optimizer.GlobalPlan {
	all, err := lb.enumerate(winner.Stmt, 0)
	if err != nil || len(all) == 0 {
		return []*optimizer.GlobalPlan{winner}
	}
	switch mode {
	case LBGlobal:
		return lb.deriveGlobal(all)
	case LBFragment:
		return lb.deriveFragment(winner, all)
	default:
		return []*optimizer.GlobalPlan{winner}
	}
}

// deriveGlobal implements §4.2: keep the cheapest plan per server set, then
// rotate over plans within the closeness band of the overall cheapest.
func (lb *LoadBalancer) deriveGlobal(all []*optimizer.GlobalPlan) []*optimizer.GlobalPlan {
	// First-seen order and a stable sort: equal-cost plans rotate in one
	// reproducible order.
	at := map[string]int{}
	var pruned []*optimizer.GlobalPlan
	for _, p := range all {
		key := p.ServerSetKey()
		if i, ok := at[key]; !ok {
			at[key] = len(pruned)
			pruned = append(pruned, p)
		} else if p.TotalEstMS < pruned[i].TotalEstMS {
			pruned[i] = p
		}
	}
	sort.SliceStable(pruned, func(i, j int) bool { return pruned[i].TotalEstMS < pruned[j].TotalEstMS })
	cheapest := pruned[0].TotalEstMS
	var set []*optimizer.GlobalPlan
	for _, p := range pruned {
		if p.TotalEstMS <= cheapest*(1+lb.cfg.Closeness) {
			set = append(set, p)
		}
		if len(set) == lb.cfg.MaxAlternatives {
			break
		}
	}
	return set
}

// deriveFragment implements §4.1: only plans whose every fragment runs the
// IDENTICAL physical plan as the winner (same signature, possibly on a
// replica) are exchangeable; rotate over those within the closeness band.
func (lb *LoadBalancer) deriveFragment(winner *optimizer.GlobalPlan, all []*optimizer.GlobalPlan) []*optimizer.GlobalPlan {
	wantSigs := make([]string, len(winner.Fragments))
	for i, f := range winner.Fragments {
		wantSigs[i] = f.Plan.Signature
	}
	var set []*optimizer.GlobalPlan
	for _, p := range all {
		if len(p.Fragments) != len(wantSigs) {
			continue
		}
		identical := true
		for i, f := range p.Fragments {
			if f.Plan.Signature != wantSigs[i] {
				identical = false
				break
			}
		}
		if !identical {
			continue
		}
		if p.TotalEstMS <= winner.TotalEstMS*(1+lb.cfg.Closeness) {
			set = append(set, p)
		}
		if len(set) == lb.cfg.MaxAlternatives {
			break
		}
	}
	if len(set) == 0 {
		return []*optimizer.GlobalPlan{winner}
	}
	sort.Slice(set, func(i, j int) bool { return set[i].TotalEstMS < set[j].TotalEstMS })
	return set
}
