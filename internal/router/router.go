// Package router holds the federation's one route policy. The optimizer
// hands over its ranking of global plans, the winner first with its menu
// (GlobalPlan.Options, each fragment's calibrated (server, plan) choices),
// and every routing decision picks from them: a round-robin rotation over
// the ranked plans within a closeness band of the winner (the paper's §4),
// or per fragment the menu's replica scoring best on the Milvus RFC's shape
//
//	score = cpu·w1 + memory·w2 + cache_locality·w3 + latency·w4
//
// with every sub-score in [0,1], higher better. Both rules share one
// dispatch-time re-check of the menu (§6's long-running-query extension), the
// counters and the journal's decision entries. With the mode off, or one
// placement per fragment, the winner comes back pointer-identical.
package router

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/integrator"
	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Mode selects how ChooseGlobal picks from the optimizer's ranking.
type Mode int

const (
	// Off is the identity: the optimizer's winner always runs.
	Off Mode = iota
	// Fragment rotates exchangeable fragment plans: identical physical
	// plans on different servers with close calibrated costs (§4.1).
	Fragment
	// Global rotates whole global plans: per-server-set pruning, then round
	// robin over plans within the closeness band (§4.2).
	Global
	// Weighted routes every fragment to its best-scoring replica.
	Weighted
)

// String names the mode, and renders a value outside the four as mode(n).
func (m Mode) String() string {
	if names := [...]string{"off", "fragment", "global", "weighted"}; uint(m) < uint(len(names)) {
		return names[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// weights are the four score-term weights.
type weights struct {
	cpu, memory, cacheLocality, latency float64
}

// milvusWeights is what Weighted scores with: the Milvus RFC weighting.
var milvusWeights = weights{cpu: 0.3, memory: 0.2, cacheLocality: 0.3, latency: 0.2}

// latencyOnly is what every other mode scores with: the score then orders
// servers as their calibrated costs do, which is the paper's cost test.
var latencyOnly = weights{latency: 1}

const (
	// DefaultCloseness is the paper's "within 20%" band.
	DefaultCloseness = 0.2
	// maxAlternatives caps a rotation set.
	maxAlternatives = 4
)

// QueuePressureGain is what one query waiting for admission adds to a
// pressure multiplier (1 + gain × depth): the router's memory term here, and
// QCC's effective II workload factor, which inflates II-side estimates by 25%
// per queued query.
const QueuePressureGain = 0.25

// Signals supplies the per-server inputs the router scores from. Every
// field is optional: a nil func contributes a neutral value, so the router
// degrades gracefully when a subsystem (QCC, admission) is absent. The
// functions are implemented by QCC (see qcc.RouterSignals), keeping this
// package free of a qcc dependency.
type Signals struct {
	// FragmentFactor returns QCC's calibration factor for a (server,
	// fragment-signature) pair: >1 means the server has been observed slower
	// than its estimate (load, churn, congestion).
	FragmentFactor func(serverID, sig string) float64
	// FirstRowFactor returns the server's first-row calibration factor and
	// whether one has been learned.
	FirstRowFactor func(serverID string) (float64, bool)
	// Reliability returns the failure-rate penalty factor (≥1; 1 = clean).
	Reliability func(serverID string) float64
	// IsFenced reports whether availability monitoring has fenced the server.
	IsFenced func(serverID string) bool
	// QueueDepth returns the admission controller's current queue depth.
	QueueDepth func() int
	// CacheResidency returns the server's mean buffer-pool residency over
	// the given physical tables, in [0,1].
	CacheResidency func(serverID string, tables []string) float64
}

// Policy is everything about routing a caller can set.
type Policy struct {
	// Mode selects the pick rule (default Off).
	Mode Mode
	// Closeness is the latency-only modes' relative cost band (0: DefaultCloseness).
	Closeness float64
	// Rescore turns on the dispatch-time re-check (RerouteFragment).
	Rescore bool
}

// Config wires a Router.
type Config struct {
	Policy
	// Signals supplies the scoring inputs.
	Signals Signals
	// MW prices a fragment's menu at dispatch time.
	MW *metawrapper.MetaWrapper
	// Optimizer re-assembles the winner after Weighted swaps fragment
	// choices, priced as enumeration prices them.
	Optimizer *optimizer.Optimizer
	// Clock timestamps decisions.
	Clock *simclock.Clock
	// Journal receives routing decisions (may be nil).
	Journal *journal.Journal
	// Telemetry receives routing counters (may be nil).
	Telemetry *telemetry.Telemetry
}

// Breakdown is one candidate server's score decomposition, kept for the
// journal's decisions.
type Breakdown struct {
	ServerID string
	CPU      float64
	Memory   float64
	Cache    float64
	Latency  float64
	Total    float64
}

// String renders the breakdown compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("%s=%.3f(cpu=%.2f mem=%.2f cache=%.2f lat=%.2f)",
		b.ServerID, b.Total, b.CPU, b.Memory, b.Cache, b.Latency)
}

// Stats counts what the router changed.
type Stats struct {
	// Rotations counts queries a rotation moved off the optimizer's winner.
	Rotations int64
	// RescoreChecks counts fragments re-checked at dispatch time and
	// RescoreSwitches those moved to another server.
	RescoreChecks   int64
	RescoreSwitches int64
}

// Router is the route policy: the only implementation of integrator.Router.
// Its policy is fixed at construction; a policy change installs a new
// Router. mu guards stats and every integrator.Turn the Router is handed.
type Router struct {
	cfg Config
	// weights is the mode's score weighting.
	weights weights

	mu    sync.Mutex
	stats Stats
}

var _ integrator.Router = (*Router)(nil)

// New builds a Router.
func New(cfg Config) *Router {
	r := &Router{cfg: cfg, weights: milvusWeights}
	if r.cfg.Closeness == 0 {
		r.cfg.Closeness = DefaultCloseness
	}
	if cfg.Mode != Weighted {
		r.weights = latencyOnly
	}
	return r
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ChooseGlobal implements integrator.Router: the compile-time pick from the
// optimizer's ranking, whose first plan is the winner. Off, an empty ranking
// (nil) and a winner without a menu come back pointer-identical.
func (r *Router) ChooseGlobal(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *integrator.Turn) *optimizer.GlobalPlan {
	if len(ranked) == 0 {
		return nil
	}
	winner := ranked[0]
	if len(winner.Options) != len(winner.Fragments) {
		return winner
	}
	switch r.cfg.Mode {
	case Fragment, Global:
		return r.rotate(ctx, ranked, turn)
	case Weighted:
		return r.argmax(ctx, winner)
	}
	return winner
}

// rotate returns the next member of the statement's rotation set, read off
// every ranking: when it holds other routes than the turn's (a QCC publish
// moved the costs, a fence or a retry's exclusion dropped a server), the turn
// takes it, keeping its position if its old set started at the winner. A nil
// turn is a fresh one nothing keeps.
func (r *Router) rotate(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *integrator.Turn) *optimizer.GlobalPlan {
	winner, now, queryText := ranked[0], r.cfg.Clock.Now(), ranked[0].Query
	if turn == nil {
		turn = &integrator.Turn{}
	}
	set := r.exchangeable(ranked)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !sameRoutes(set, turn.Plans) {
		if len(turn.Plans) == 0 || !sameRoute(turn.Plans[0], winner) {
			turn.Next = 0
		}
		turn.Plans = set
	}
	if len(turn.Plans) <= 1 {
		r.record(ctx, now, queryText, winner.RouteKey(), "kept winner (no rotation set)", nil)
		return winner
	}
	pos := turn.Next % len(turn.Plans)
	chosen := turn.Plans[pos]
	turn.Next++
	if reg := r.cfg.Telemetry.Active(); reg != nil { // the key is built for nothing else
		reg.Counter("qcc.lb_choices", chosen.ServerSetKey()).Inc()
	}
	reason := "winner"
	if !sameRoute(chosen, winner) {
		r.stats.Rotations++
		r.cfg.Telemetry.Active().Counter("qcc.rotations", "").Inc()
		reason = "rotated off winner"
	}
	r.record(ctx, now, queryText, chosen.RouteKey(), fmt.Sprintf("round-robin %d/%d (%s)", pos+1, len(turn.Plans), reason), nil)
	return chosen
}

// sameRoute reports whether a and b run every fragment on the same server
// with the same physical plan.
func sameRoute(a, b *optimizer.GlobalPlan) bool {
	return slices.EqualFunc(a.Fragments, b.Fragments, func(x, y optimizer.FragmentChoice) bool {
		return x.ServerID == y.ServerID && x.Plan.Signature == y.Plan.Signature
	})
}

// sameRoutes reports whether two rotation sets hold the same routes, in any
// order. Neither holds a route twice, so that is every route of each shared.
func sameRoutes(a, b []*optimizer.GlobalPlan) bool {
	shared := 0
	for _, p := range a {
		if slices.ContainsFunc(b, func(q *optimizer.GlobalPlan) bool { return sameRoute(p, q) }) {
			shared++
		}
	}
	return shared == len(a) && shared == len(b)
}

// exchangeable reads the winner's rotation set off the optimizer's ranking in
// one pass: the ranked plans within the closeness band of the winner, in
// ranking order (the winner first), at most maxAlternatives. Fragment scope
// (§4.1) keeps the plans whose every fragment runs the winner's physical plan;
// global scope (§4.2) keeps the first plan per server set. The set is fresh:
// it outlives this call and must not pin the ranking.
func (r *Router) exchangeable(ranked []*optimizer.GlobalPlan) []*optimizer.GlobalPlan {
	winner := ranked[0]
	set, seen := make([]*optimizer.GlobalPlan, 0, maxAlternatives), map[string]bool{}
	samePlan := func(a, b optimizer.FragmentChoice) bool { return a.Plan.Signature == b.Plan.Signature }
	for _, p := range ranked {
		if len(set) == maxAlternatives || p.TotalEstMS > winner.TotalEstMS*(1+r.cfg.Closeness) {
			break
		}
		switch r.cfg.Mode {
		case Fragment:
			if !slices.EqualFunc(p.Fragments, winner.Fragments, samePlan) {
				continue
			}
		case Global:
			key := p.ServerSetKey()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		set = append(set, p)
	}
	return set
}

// candidate is one server's representative for a fragment — its cheapest
// calibrated plan — with its calibrated estimate and its score. The router
// chooses among SERVERS; within a server it always keeps the cheapest plan,
// so a single-placement fragment can never have its plan swapped.
type candidate struct {
	choice optimizer.FragmentChoice
	est    remote.CostEstimate
	score  Breakdown
}

// pick is argmax's and the dispatch re-check's one decision over a fragment's
// menu, priced as compiled or, with reprice, now: the scored per-server
// representatives and the best's index (-1: none); nil for one server.
func (r *Router) pick(sig string, menu []optimizer.FragmentChoice, reprice bool) ([]candidate, int) {
	reps, minCost := r.represent(sig, menu, reprice)
	if len(reps) <= 1 {
		return nil, -1
	}
	return r.rank(sig, reps, minCost)
}

// represent collapses a fragment's menu to per-server cheapest
// representatives in first-seen server order, and returns the minimum
// calibrated cost for latency normalization.
func (r *Router) represent(sig string, menu []optimizer.FragmentChoice, reprice bool) (reps []candidate, minCost float64) {
	minCost = math.Inf(1)
	for _, opt := range menu {
		est := opt.Plan.Est
		if reprice {
			est = r.price(sig, opt)
		}
		if i := slices.IndexFunc(reps, func(c candidate) bool { return c.choice.ServerID == opt.ServerID }); i < 0 {
			reps = append(reps, candidate{choice: opt, est: est})
		} else if est.TotalMS < reps[i].est.TotalMS {
			reps[i].choice, reps[i].est = opt, est
		}
		if est.TotalMS < minCost {
			minCost = est.TotalMS
		}
	}
	return reps, minCost
}

// price is a menu entry's estimate under the current calibration, through
// the formula enumeration prices with: +Inf for a fenced, banned or masked server.
func (r *Router) price(sig string, opt optimizer.FragmentChoice) remote.CostEstimate {
	est := r.cfg.MW.CalibrateCandidate(opt.ServerID, sig, opt.RawEst, opt.CostKnown)
	if r.cfg.MW.Masked(opt.ServerID) {
		est.TotalMS = math.Inf(1)
	}
	return est
}

// rank scores a fragment's representatives. It returns the scorable ones
// (fenced and infinite-cost servers are dropped) in first-seen order and the
// index of the best score (the first of equals; -1 when nothing scored).
func (r *Router) rank(sig string, reps []candidate, minCost float64) ([]candidate, int) {
	scored, best := reps[:0], -1
	for _, c := range reps {
		b, ok := r.score(c.choice.ServerID, sig, c.choice.Plan.Tables, c.est.TotalMS, minCost)
		if !ok {
			continue
		}
		c.score = b
		if best < 0 || b.Total > scored[best].score.Total {
			best = len(scored)
		}
		scored = append(scored, c)
	}
	return scored, best
}

// score computes one candidate's breakdown. sig is the fragment's
// calibration signature, cost the candidate's calibrated total estimate, and
// minCost the cheapest calibrated estimate among the fragment's candidates
// (for latency normalization). Fenced servers return ok=false.
func (r *Router) score(serverID, sig string, tables []string, cost, minCost float64) (Breakdown, bool) {
	s := r.cfg.Signals
	if s.IsFenced != nil && s.IsFenced(serverID) {
		return Breakdown{}, false
	}
	if math.IsInf(cost, 1) || math.IsNaN(cost) {
		return Breakdown{}, false
	}
	// CPU/load: inverse of the worst calibration inflation observed for this
	// (server, fragment) — the per-fragment factor or the server's first-row
	// factor, whichever is larger. 1 on a calm, calibrated server.
	infl := 1.0
	if s.FragmentFactor != nil {
		if f := s.FragmentFactor(serverID, sig); f > infl {
			infl = f
		}
	}
	if s.FirstRowFactor != nil {
		if f, ok := s.FirstRowFactor(serverID); ok && f > infl {
			infl = f
		}
	}
	cpu := 1 / infl
	// Memory/pressure: inverse of the reliability penalty times admission
	// queue pressure. 1 on a clean server with an empty queue.
	pressure := 1.0
	if s.Reliability != nil {
		if f := s.Reliability(serverID); f > 1 {
			pressure = f
		}
	}
	if s.QueueDepth != nil {
		pressure *= 1 + QueuePressureGain*float64(s.QueueDepth())
	}
	mem := 1 / pressure
	// Cache locality: mean buffer-pool residency of the fragment's tables.
	cache := 0.0
	if s.CacheResidency != nil {
		cache = s.CacheResidency(serverID, tables)
	}
	// Latency: the cheapest candidate's calibrated cost over this one's.
	lat := 1.0
	if cost > 0 && minCost > 0 {
		lat = minCost / cost
	}
	w := r.weights
	b := Breakdown{
		ServerID: serverID,
		CPU:      cpu,
		Memory:   mem,
		Cache:    cache,
		Latency:  lat,
	}
	b.Total = w.cpu*cpu + w.memory*mem + w.cacheLocality*cache + w.latency*lat
	return b, true
}

// argmax is Weighted's compile-time pick: every fragment with more than one
// candidate server in the menu goes to the best-scoring one. A fragment with
// a single placement keeps the winner's exact choice, and if nothing changes
// the winner comes back pointer-identical (replication-off bit-identity).
func (r *Router) argmax(ctx context.Context, winner *optimizer.GlobalPlan) *optimizer.GlobalPlan {
	chosen := make([]optimizer.FragmentChoice, len(winner.Fragments))
	changed := false
	var notes []Breakdown
	for i, f := range winner.Fragments {
		chosen[i] = f
		scored, best := r.pick(f.Spec.Sig, winner.Options[i], false)
		if best < 0 {
			continue
		}
		pick := scored[best]
		notes = append(notes, pick.score)
		r.cfg.Telemetry.Active().Counter("router.replica_chosen", pick.score.ServerID).Inc()
		if pick.choice.ServerID != f.ServerID {
			chosen[i] = pick.choice
			changed = true
		}
	}
	now := r.cfg.Clock.Now()
	if !changed {
		r.record(ctx, now, winner.Query, winner.RouteKey(), "kept winner", notes)
		return winner
	}
	out := r.cfg.Optimizer.AssembleGlobal(winner.Stmt, winner.Decomp, chosen)
	out.Options = winner.Options
	r.record(ctx, now, winner.Query, out.RouteKey(), "replica swap", notes)
	return out
}

// RerouteFragment implements integrator.Router: just before a fragment
// dispatches, price its menu now, with no Explain, and move it to the best
// score when its server left the menu (fenced, banned or masked), or under
// Weighted scores worse than the best, or otherwise costs more than
// (1+Closeness) times the cheapest. The II ships a plan's fragments in plan
// order, so the re-check sees the runs of the fragments before it. A server
// down but unprobed stays on the menu: its dispatch fails, and the retry's
// menu omits it.
func (r *Router) RerouteFragment(ctx context.Context, choice optimizer.FragmentChoice, menu []optimizer.FragmentChoice) *optimizer.FragmentChoice {
	if !r.cfg.Rescore {
		return nil
	}
	scored, best := r.pick(choice.Spec.Sig, menu, true)
	if scored == nil {
		return nil
	}
	r.mu.Lock()
	r.stats.RescoreChecks++
	r.mu.Unlock()
	reg := r.cfg.Telemetry.Active()
	reg.Counter("qcc.reroute_checks", "").Inc()
	if best < 0 {
		return nil
	}
	pick := scored[best]
	for _, c := range scored {
		if c.choice.ServerID == choice.ServerID && (c.score.Total >= pick.score.Total ||
			r.cfg.Mode != Weighted && c.est.TotalMS <= pick.est.TotalMS*(1+r.cfg.Closeness)) {
			return nil
		}
	}
	plan := *pick.choice.Plan
	plan.Est = pick.est
	pick.choice.Plan = &plan
	r.mu.Lock()
	r.stats.RescoreSwitches++
	r.mu.Unlock()
	reg.Counter("qcc.reroute_switches", pick.score.ServerID).Inc()
	r.record(ctx, r.cfg.Clock.Now(), "", choice.Spec.ID+"@"+pick.score.ServerID,
		fmt.Sprintf("dispatch rescore from %s", choice.ServerID), []Breakdown{pick.score})
	return &pick.choice
}

// record appends a decision to the journal (when there is one), stamped with
// the context's query, under the mode's policy label: "weighted", or "lb" for
// the paper's policies.
func (r *Router) record(ctx context.Context, at simclock.Time, query, route, reason string, notes []Breakdown) {
	if r.cfg.Journal == nil {
		return
	}
	policy := "lb"
	if r.cfg.Mode == Weighted {
		policy = "weighted"
	}
	sep := ": "
	for _, b := range notes {
		reason += sep + b.String()
		sep = " "
	}
	r.cfg.Journal.Decisions.Add(journal.Decision{
		QueryID: journal.ScopeOf(ctx).Query, At: at, Query: query, Policy: policy, Route: route, Reason: reason,
	})
}
