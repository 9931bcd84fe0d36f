// Package router implements score-based weighted replica routing over
// partially replicated table fragments. Where the paper's load-distribution
// layer (§4, qcc.LoadBalancer) only rotates near-optimal global plans
// round-robin, the WeightedRouter scores every candidate replica of every
// fragment from signals the federation already produces — QCC calibration
// and first-row factors, reliability and fence state, admission queue depth
// — plus a per-server cache-locality signal (remote buffer-pool residency),
// and picks the best replica per dispatch. The score shape follows the
// Milvus adaptive-routing RFC:
//
//	score = cpu·w1 + memory·w2 + cache_locality·w3 + latency·w4
//
// Every sub-score lies in [0,1] with higher better. With a single placement
// per fragment the router is a strict no-op — it returns the optimizer's
// winner untouched and never consults a signal — so replication-off
// federations stay bit-identical to the pre-replication engine.
package router

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Weights are the four score-term weights. The defaults follow the Milvus
// RFC: cpu 0.3, memory 0.2, cache locality 0.3, latency 0.2.
type Weights struct {
	CPU           float64
	Memory        float64
	CacheLocality float64
	Latency       float64
}

// DefaultWeights is the Milvus RFC weighting.
var DefaultWeights = Weights{CPU: 0.3, Memory: 0.2, CacheLocality: 0.3, Latency: 0.2}

// zero reports whether no weight is set (the config asks for defaults).
func (w Weights) zero() bool {
	return w.CPU == 0 && w.Memory == 0 && w.CacheLocality == 0 && w.Latency == 0
}

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

// Config configures a WeightedRouter.
type Config struct {
	// Weights are the score-term weights; all-zero selects DefaultWeights.
	Weights Weights
	// QueuePressureGain converts admission queue depth into memory-pressure
	// (default 0.25, matching QCC's queue-pressure gain).
	QueuePressureGain float64
	// DisableDispatchRescore turns off the dispatch-time re-scoring pass
	// (RerouteFragment); compile-time replica choice still applies.
	DisableDispatchRescore bool
	// Signals supplies the scoring inputs.
	Signals Signals
	// MW is the meta-wrapper, used to re-explain candidates at dispatch time
	// with current calibration.
	MW *metawrapper.MetaWrapper
	// Assemble re-derives a global plan's merge/total estimates after the
	// router swaps fragment choices (wired to the optimizer's
	// AssembleGlobal).
	Assemble func(winner *optimizer.GlobalPlan, chosen []optimizer.FragmentChoice) *optimizer.GlobalPlan
	// Clock timestamps decision-log entries (may be nil).
	Clock *simclock.Clock
	// Log receives routing decisions (may be nil).
	Log *DecisionLog
}

// Breakdown is one candidate server's score decomposition, kept for span
// attributes and the decision log.
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

// WeightedRouter scores candidate replicas per fragment. It implements
// integrator.RoutePolicy (compile-time replica choice over the winner's
// per-fragment option menus) and integrator.RuntimeRerouter (dispatch-time
// re-scoring with current calibration).
type WeightedRouter struct {
	cfg Config

	mu sync.Mutex
	// lastAttrs holds the most recent per-fragment chosen breakdown, for
	// span attribute annotation.
	lastAttrs map[string]Breakdown
	rerouted  int64
	checked   int64
	tel       *telemetry.Telemetry
}

// New builds a WeightedRouter.
func New(cfg Config) *WeightedRouter {
	if cfg.Weights.zero() {
		cfg.Weights = DefaultWeights
	}
	if cfg.QueuePressureGain == 0 {
		cfg.QueuePressureGain = 0.25
	}
	return &WeightedRouter{cfg: cfg, lastAttrs: map[string]Breakdown{}}
}

// SetTelemetry installs the observability subsystem: per-replica score
// gauges and replica-choice counters. Nil disables.
func (r *WeightedRouter) SetTelemetry(t *telemetry.Telemetry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tel = t
}

// Weights returns the resolved weights.
func (r *WeightedRouter) Weights() Weights { return r.cfg.Weights }

// Rerouted reports dispatch-time switches and checks.
func (r *WeightedRouter) Rerouted() (switched, checked int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rerouted, r.checked
}

func (r *WeightedRouter) telemetry() *telemetry.Telemetry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tel
}

// score computes one candidate's breakdown. sig is the fragment's
// calibration signature, cost the candidate's calibrated total estimate, and
// minCost the cheapest calibrated estimate among the fragment's candidates
// (for latency normalization). Fenced servers return ok=false.
func (r *WeightedRouter) score(serverID, sig string, tables []string, cost, minCost float64) (Breakdown, bool) {
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
		pressure *= 1 + r.cfg.QueuePressureGain*float64(s.QueueDepth())
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
	w := r.cfg.Weights
	b := Breakdown{
		ServerID: serverID,
		CPU:      cpu,
		Memory:   mem,
		Cache:    cache,
		Latency:  lat,
	}
	b.Total = w.CPU*cpu + w.Memory*mem + w.CacheLocality*cache + w.Latency*lat
	return b, true
}

// serverRep is one candidate server's representative choice: its cheapest
// calibrated plan for the fragment. The router chooses among SERVERS —
// within a server it always keeps the cheapest plan — so a single-placement
// fragment can never have its plan swapped.
type serverRep struct {
	choice optimizer.FragmentChoice
	cost   float64
}

// represent collapses a fragment's option list to per-server cheapest
// representatives, preserving first-seen server order, and returns the
// minimum calibrated cost for latency normalization.
func represent(opts []optimizer.FragmentChoice) (order []string, reps map[string]serverRep, minCost float64) {
	reps = map[string]serverRep{}
	minCost = math.Inf(1)
	for _, opt := range opts {
		cost := opt.Plan.Est.TotalMS
		rep, ok := reps[opt.ServerID]
		if !ok {
			order = append(order, opt.ServerID)
			reps[opt.ServerID] = serverRep{choice: opt, cost: cost}
		} else if cost < rep.cost {
			reps[opt.ServerID] = serverRep{choice: opt, cost: cost}
		}
		if cost < minCost {
			minCost = cost
		}
	}
	return order, reps, minCost
}

// ChooseGlobal implements integrator.RoutePolicy: for every fragment with
// more than one candidate server in the winner's option menu, score the
// per-server representatives and pick the best. Fragments with a single
// placement keep the winner's exact choice; if nothing changes, the winner
// is returned untouched (pointer-identical), preserving bit-identity for
// replication-off federations.
func (r *WeightedRouter) ChooseGlobal(queryText string, winner *optimizer.GlobalPlan) *optimizer.GlobalPlan {
	if winner == nil || len(winner.Options) != len(winner.Fragments) {
		return winner
	}
	chosen := make([]optimizer.FragmentChoice, len(winner.Fragments))
	changed := false
	var notes []Breakdown
	for i, f := range winner.Fragments {
		chosen[i] = f
		order, reps, minCost := represent(winner.Options[i])
		if len(order) <= 1 {
			continue
		}
		sig := f.Spec.Sig
		var best Breakdown
		bestOK := false
		for _, serverID := range order {
			rep := reps[serverID]
			b, ok := r.score(serverID, sig, rep.choice.Plan.Tables, rep.cost, minCost)
			if !ok {
				continue
			}
			r.noteScore(f.Spec.ID, b)
			if !bestOK || b.Total > best.Total {
				best, bestOK = b, true
			}
		}
		if !bestOK {
			continue
		}
		notes = append(notes, best)
		r.mu.Lock()
		r.lastAttrs[f.Spec.ID] = best
		r.mu.Unlock()
		r.telemetry().Active().Counter("router.replica_chosen", best.ServerID).Inc()
		if best.ServerID != f.ServerID {
			chosen[i] = reps[best.ServerID].choice
			changed = true
		}
	}
	if !changed {
		r.record(queryText, winner.RouteKey(), "kept winner", notes)
		return winner
	}
	out := winner
	if r.cfg.Assemble != nil {
		out = r.cfg.Assemble(winner, chosen)
		out.Options = winner.Options
	} else {
		cp := *winner
		cp.Fragments = chosen
		out = &cp
	}
	r.record(queryText, out.RouteKey(), "replica swap", notes)
	return out
}

// RerouteFragment implements integrator.RuntimeRerouter: just before a
// fragment dispatches, re-explain it on every candidate server with CURRENT
// calibration (compile time may be stale for queued or cached plans), score
// the representatives, and switch when another replica now scores best.
// Single-candidate fragments return nil without consulting anything.
func (r *WeightedRouter) RerouteFragment(choice optimizer.FragmentChoice) *optimizer.FragmentChoice {
	if r.cfg.DisableDispatchRescore || r.cfg.MW == nil || len(choice.Spec.Candidates) <= 1 {
		return nil
	}
	r.mu.Lock()
	r.checked++
	r.mu.Unlock()
	var opts []optimizer.FragmentChoice
	for _, serverID := range choice.Spec.Candidates {
		cands, err := r.cfg.MW.ExplainFragment(serverID, choice.Spec.Stmt)
		if err != nil {
			continue
		}
		for _, c := range cands {
			opts = append(opts, optimizer.FragmentChoice{
				Spec:      choice.Spec,
				ServerID:  serverID,
				Plan:      c.Plan,
				RawEst:    c.RawEst,
				CostKnown: c.CostKnown,
			})
		}
	}
	order, reps, minCost := represent(opts)
	if len(order) == 0 {
		return nil
	}
	sig := choice.Spec.Sig
	var best Breakdown
	bestOK := false
	for _, serverID := range order {
		rep := reps[serverID]
		b, ok := r.score(serverID, sig, rep.choice.Plan.Tables, rep.cost, minCost)
		if !ok {
			continue
		}
		r.noteScore(choice.Spec.ID, b)
		if !bestOK || b.Total > best.Total {
			best, bestOK = b, true
		}
	}
	if !bestOK {
		return nil
	}
	r.mu.Lock()
	r.lastAttrs[choice.Spec.ID] = best
	r.mu.Unlock()
	if best.ServerID == choice.ServerID {
		return nil
	}
	r.mu.Lock()
	r.rerouted++
	r.mu.Unlock()
	r.telemetry().Active().Counter("router.reroutes", best.ServerID).Inc()
	r.record("", choice.Spec.ID+"@"+best.ServerID,
		fmt.Sprintf("dispatch rescore from %s", choice.ServerID), []Breakdown{best})
	swapped := reps[best.ServerID].choice
	return &swapped
}

// RouteAttrs implements integrator.RouteAnnotator: the score breakdown of
// the most recent choice for a fragment, as span attributes.
func (r *WeightedRouter) RouteAttrs(fragID string) map[string]string {
	r.mu.Lock()
	b, ok := r.lastAttrs[fragID]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	return map[string]string{
		"router.score":       fmt.Sprintf("%.4f", b.Total),
		"router.score_cpu":   fmt.Sprintf("%.4f", b.CPU),
		"router.score_mem":   fmt.Sprintf("%.4f", b.Memory),
		"router.score_cache": fmt.Sprintf("%.4f", b.Cache),
		"router.score_lat":   fmt.Sprintf("%.4f", b.Latency),
	}
}

// noteScore publishes one candidate's score gauge.
func (r *WeightedRouter) noteScore(fragID string, b Breakdown) {
	r.telemetry().Active().Gauge("router.score", fragID+"@"+b.ServerID).Set(b.Total)
}

// record appends to the decision log (nil-safe).
func (r *WeightedRouter) record(query, route, reason string, notes []Breakdown) {
	if r.cfg.Log == nil {
		return
	}
	var at simclock.Time
	if r.cfg.Clock != nil {
		at = r.cfg.Clock.Now()
	}
	detail := reason
	for i, b := range notes {
		if i == 0 {
			detail += ": "
		} else {
			detail += " "
		}
		detail += b.String()
	}
	r.cfg.Log.Record(Decision{At: at, Query: query, Policy: "weighted", Route: route, Reason: detail})
}
