// Package fedqcc is a federated query engine with a Query Cost Calibrator
// (QCC), reproducing "Load and Network Aware Query Routing for Information
// Integration" (Li, Batra, Raman, Han, Candan, Narang — ICDE 2005).
//
// The library builds federations of simulated remote database servers behind
// an information integrator (II). Federated SQL is decomposed into per-source
// fragments, fragments are costed and executed through per-source wrappers,
// and results are merged at the integrator. The QCC attaches transparently —
// it never modifies the optimizer — and:
//
//   - learns per-server and per-fragment cost calibration factors from
//     (estimated, observed) pairs, so the optimizer's costs track remote
//     load and network conditions;
//   - probes source availability and fences off down servers;
//   - folds a reliability factor from observed errors into costs;
//   - adapts its own recalibration cycle to factor drift; and
//   - rotates near-optimal plans round-robin for load distribution.
//
// # Quick start
//
//	fed, _ := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50})
//	cal := fed.EnableQCC(fedqcc.QCCOptions{})
//	res, _ := fed.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100")
//	fmt.Println(res.Rows, res.ResponseTime, res.Route)
//	_ = cal
//
// Arbitrary topologies are assembled with Builder. The experiments of the
// paper's §5 are exposed through RunSensitivityStudy and RunGainStudy.
package fedqcc

import (
	"context"
	"fmt"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/integrator"
	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/qcc"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
)

// Re-exported fundamental types. These are stable aliases into the engine's
// value layer so callers can consume query results without extra imports.
type (
	// Value is a single SQL value.
	Value = sqltypes.Value
	// Row is a tuple of values.
	Row = sqltypes.Row
	// Relation is a materialized result set.
	Relation = sqltypes.Relation
	// Time is simulated time in milliseconds.
	Time = simclock.Time
	// PlanCacheStats snapshots the integrator's federated plan cache
	// counters: hits, misses, live entries and invalidations by cause.
	PlanCacheStats = integrator.PlanCacheStats
	// StatementCacheStats snapshots one remote server's statement-cache
	// counters, including LRU evictions.
	StatementCacheStats = remote.StatementCacheStats
	// Telemetry is the observability subsystem: per-query traces, the
	// metrics registry and calibration timelines (see EnableTelemetry).
	Telemetry = telemetry.Telemetry
	// Trace is one query's span tree on virtual time.
	Trace = telemetry.Trace
)

// Federation is a fully-wired federated system: remote servers, network,
// catalog, meta-wrapper and integrator, all on one virtual clock.
type Federation struct {
	clock   *simclock.Clock
	servers map[string]*remote.Server
	topo    *network.Topology
	catalog *catalog.Catalog
	mw      *metawrapper.MetaWrapper
	iiNode  *remote.Server
	ii      *integrator.II
	qcc     *qcc.QCC
	tel     *telemetry.Telemetry
	adm     *admission.Controller
}

// FederationOptions configures the canned paper federation.
type FederationOptions struct {
	// Scale divides the paper's table sizes (1 = 100k-row large tables).
	Scale int
	// Seed drives deterministic data generation.
	Seed int64
}

// NewPaperFederation builds the paper's evaluation scenario: servers S1, S2
// and S3 with the sample schema fully replicated, plus the integrator node.
func NewPaperFederation(opts FederationOptions) (*Federation, error) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// NewReplicaFederation builds the §4 load-distribution scenario: origin
// servers S1 and S2 plus replicas R1 and R2, with each source group hosting
// half the schema so cross-source joins are unavoidable.
func NewReplicaFederation(opts FederationOptions) (*Federation, error) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// ReplicatedFederationOptions configures the replica-routing hotspot
// scenario.
type ReplicatedFederationOptions struct {
	// Servers is the replica count (default 3, IDs S1..SN).
	Servers int
	// Scale divides the paper's table sizes.
	Scale int
	// Seed drives deterministic data generation.
	Seed int64
}

// NewReplicatedFederation builds the replica-routing hotspot scenario: N
// uniform servers, every sample table registered through
// catalog.RegisterReplicated on all of them, query-induced load and a
// buffer-pool residency model. Pair it with EnableQCC and the LBWeighted
// routing mode to route each fragment to the replica scoring best on load,
// pressure, cache locality and calibrated latency.
func NewReplicatedFederation(opts ReplicatedFederationOptions) (*Federation, error) {
	sc, err := scenario.BuildReplicated(scenario.ReplicatedOptions{
		Servers: opts.Servers,
		Scale:   opts.Scale,
		Seed:    opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// ShardedFederationOptions configures the scale-out scenario.
type ShardedFederationOptions struct {
	// Shards is the shard (and server) count; 1 builds a plain unsharded
	// single-server federation.
	Shards int
	// Scale divides the paper's table sizes (1 = 100k-row large tables).
	Scale int
	// Seed drives deterministic data generation.
	Seed int64
	// RangeSharding switches lineitem from hash to range sharding on
	// l_orderkey.
	RangeSharding bool
	// NullKeyFrac makes roughly this fraction of lineitem rows carry a NULL
	// shard key.
	NullKeyFrac float64
}

// NewShardedFederation builds the scale-out scenario: lineitem horizontally
// sharded on l_orderkey across N uniform servers (shard i on server S<i+1>),
// small tables replicated everywhere. Aggregate queries over lineitem run
// two-phase with partial aggregation pushed into every shard; predicates on
// l_orderkey prune the shard fan-out.
func NewShardedFederation(opts ShardedFederationOptions) (*Federation, error) {
	method := catalog.ShardHash
	if opts.RangeSharding {
		method = catalog.ShardRange
	}
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{
		Shards:      opts.Shards,
		Scale:       opts.Scale,
		Seed:        opts.Seed,
		Method:      method,
		NullKeyFrac: opts.NullKeyFrac,
	})
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

func fromScenario(sc *scenario.Scenario) *Federation {
	// Telemetry is always constructed and wired but starts disabled: every
	// instrumentation site no-ops behind one atomic load until
	// EnableTelemetry flips it on.
	tel := telemetry.New()
	sc.II.SetTelemetry(tel)
	sc.MW.SetTelemetry(tel)
	sc.Topo.SetTelemetry(tel)
	for _, srv := range sc.Servers {
		srv.SetTelemetry(tel)
	}
	if sc.IINode != nil {
		sc.IINode.SetTelemetry(tel)
	}
	// The admission controller is always installed but starts with the
	// unlimited default policy: a pass-through gate with zero behavioural
	// footprint until Admission().SetPolicy imposes caps.
	adm := admission.New(admission.Config{Clock: sc.Clock, Telemetry: tel})
	sc.II.SetAdmission(adm)
	return &Federation{
		clock:   sc.Clock,
		servers: sc.Servers,
		topo:    sc.Topo,
		catalog: sc.Catalog,
		mw:      sc.MW,
		iiNode:  sc.IINode,
		ii:      sc.II,
		tel:     tel,
		adm:     adm,
	}
}

// Telemetry returns the federation's observability subsystem. It is always
// non-nil but collects nothing until EnableTelemetry switches it on.
func (f *Federation) Telemetry() *Telemetry { return f.tel }

// EnableTelemetry switches the observability subsystem on and returns it:
// subsequent queries produce span traces, the metrics registry fills, and
// recalibration cycles append to the calibration timeline.
func (f *Federation) EnableTelemetry() *Telemetry {
	f.tel.SetEnabled(true)
	return f.tel
}

// DisableTelemetry switches the observability subsystem off. Collected
// traces, metrics and timelines are retained for inspection.
func (f *Federation) DisableTelemetry() { f.tel.SetEnabled(false) }

// FormatMetrics renders a metrics registry (Telemetry().Metrics()) as an
// aligned human-readable table.
func FormatMetrics(r *telemetry.Registry) string { return telemetry.FormatMetrics(r) }

// FormatTimeline renders the calibration-factor timeline
// (Telemetry().Timelines()) grouped by server in time order.
func FormatTimeline(ts *telemetry.TimelineStore) string { return telemetry.FormatTimeline(ts) }

// Clock returns the federation's virtual clock.
func (f *Federation) Clock() *simclock.Clock { return f.clock }

// Now returns the current simulated time.
func (f *Federation) Now() Time { return f.clock.Now() }

// ServerIDs lists the remote servers.
func (f *Federation) ServerIDs() []string { return f.mw.Servers() }

// Server returns a control handle for a remote server.
func (f *Federation) Server(id string) (*ServerHandle, error) {
	srv, ok := f.servers[id]
	if !ok {
		return nil, fmt.Errorf("fedqcc: unknown server %q", id)
	}
	return &ServerHandle{srv: srv, link: f.topo.Link(id), mw: f.mw}, nil
}

// PlanCacheStats snapshots the integrator's federated plan cache counters.
func (f *Federation) PlanCacheStats() PlanCacheStats { return f.ii.PlanCacheStats() }

// ResetCompileCaches drops every cached compilation at both layers — the
// integrator's federated plan cache and each remote server's statement
// cache — so the next compile is fully cold. Counters are retained.
func (f *Federation) ResetCompileCaches() {
	f.ii.ClearPlanCache()
	for _, srv := range f.servers {
		srv.ResetPlanCache()
	}
}

// QueryResult is the outcome of a federated query.
type QueryResult struct {
	// ID is the query's journal ID: QueryRecord(ID) returns everything the
	// federation recorded for it, and its trace carries the same ID.
	ID int64
	// Rows is the merged result.
	Rows *Relation
	// ResponseTime is the end-user response time in simulated ms. The
	// integrator merges fragment batches as they arrive, so it lies between
	// the slowest fragment and the slowest fragment plus MergeTime; the
	// overlapped merge work is max(FragmentTimes) + MergeTime - ResponseTime.
	ResponseTime Time
	// Route maps fragment IDs to the servers they executed on.
	Route map[string]string
	// FragmentTimes maps fragment IDs to their observed response times.
	FragmentTimes map[string]Time
	// MergeTime is the integrator-side merge time.
	MergeTime Time
	// FirstRowTime is when the first merged result row could be emitted:
	// the latest first-batch arrival across fragments (results stream from
	// the remote servers in batches) plus the integrator's merge, and never
	// later than ResponseTime.
	FirstRowTime Time
	// Retried counts re-optimizations after fragment failures.
	Retried int
	// QueueWait is the virtual time the query spent in the admission queue
	// before execution began — zero unless Admission() imposed caps that
	// made it wait. End-to-end latency is QueueWait + ResponseTime;
	// ResponseTime itself stays pure execution time so QCC's calibration is
	// unaffected by queueing.
	QueueWait Time
	// AdmissionClass is the workload class the query ran under
	// ("interactive"/"batch" by default).
	AdmissionClass string
	// Tenant is the tenant the query was submitted under — set via
	// WithQueryTenant ("" for untagged submissions).
	Tenant string
}

// SetVectorized does nothing: every federation runs the columnar engine, at
// the remote servers and in the integrator's merge.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func (f *Federation) SetVectorized(bool) {}

// SetColumnarWire does nothing: every server ships its results as typed
// column batches in the compact colbatch wire encoding, and the network,
// the wrapper's charges and the run log all observe the encoded sizes.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func (f *Federation) SetColumnarWire(bool) {}

// Query compiles and executes a federated SQL statement, advancing the
// virtual clock by the query's response time. See QueryContext for
// caller-supplied cancellation and concurrent submission.
func (f *Federation) Query(sql string) (*QueryResult, error) {
	return f.QueryContext(context.Background(), sql)
}

// QueryContext is Query with caller-supplied cancellation: the context is
// threaded through the integrator, meta-wrapper, wrapper, server and network
// layers, so cancelling it aborts in-flight fragment dispatches. It is safe
// for concurrent use: concurrent callers call it from their own goroutines,
// and their virtual-time charges stack on the shared clock.
func (f *Federation) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	res, err := f.ii.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	route := map[string]string{}
	for _, frag := range res.Plan.Fragments {
		route[frag.Spec.ID] = frag.ServerID
	}
	// Runtime rerouting may have moved fragments after compilation.
	for id, s := range res.ExecutedServers {
		route[id] = s
	}
	return &QueryResult{
		ID:             res.ID,
		Rows:           res.Rel,
		ResponseTime:   res.ResponseTime,
		Route:          route,
		FragmentTimes:  res.FragmentTimes,
		MergeTime:      res.MergeTime,
		FirstRowTime:   res.FirstRowTime,
		Retried:        res.Retried,
		QueueWait:      res.QueueWait,
		AdmissionClass: res.AdmissionClass,
		Tenant:         res.Tenant,
	}, nil
}

// PlanInfo summarizes a compiled (but not executed) global plan.
type PlanInfo struct {
	// Query is the statement text.
	Query string
	// Route maps fragment IDs to chosen servers.
	Route map[string]string
	// FragmentCostMS maps fragment IDs to calibrated estimates.
	FragmentCostMS map[string]float64
	// TotalCostMS is the calibrated global estimate.
	TotalCostMS float64
	// FragmentPlans maps fragment IDs to physical plan text.
	FragmentPlans map[string]string
	// FragmentSQL maps fragment IDs to the statement each fragment runs.
	FragmentSQL map[string]string
}

// Explain compiles a statement in explain mode: the winner is recorded in
// the journal (ExplainLog) and summarized, nothing executes.
func (f *Federation) Explain(sql string) (*PlanInfo, error) {
	gp, err := f.ii.Compile(sql)
	if err != nil {
		return nil, err
	}
	return planInfo(gp), nil
}

func planInfo(gp *optimizer.GlobalPlan) *PlanInfo {
	info := &PlanInfo{
		Query:          gp.Query,
		Route:          map[string]string{},
		FragmentCostMS: map[string]float64{},
		FragmentPlans:  map[string]string{},
		FragmentSQL:    map[string]string{},
		TotalCostMS:    gp.TotalEstMS,
	}
	for _, frag := range gp.Fragments {
		info.Route[frag.Spec.ID] = frag.ServerID
		info.FragmentCostMS[frag.Spec.ID] = frag.Plan.Est.TotalMS
		info.FragmentPlans[frag.Spec.ID] = frag.Plan.Explain()
		info.FragmentSQL[frag.Spec.ID] = frag.Spec.SQL
	}
	return info
}

// EnumeratePlans returns up to topK alternative global plans ranked by
// calibrated cost (topK <= 0 returns all enumerated combinations).
func (f *Federation) EnumeratePlans(sql string, topK int) ([]*PlanInfo, error) {
	stmt, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	plans, err := f.ii.Optimizer().Enumerate(stmt, topK)
	if err != nil {
		return nil, err
	}
	out := make([]*PlanInfo, len(plans))
	for i, gp := range plans {
		out[i] = planInfo(gp)
	}
	return out, nil
}

// QueryLog returns the retained submit/complete entries in submission order.
// Like RunLog, ExplainLog and RouteDecisions it is a view over the federation's
// one query journal (internal/journal), whose sequences each keep their most
// recent entries (4096; 64 route decisions) stamped with their query's ID.
func (f *Federation) QueryLog() []journal.Query { return f.ii.Journal().Queries() }

// QueryLogStats snapshots the query entries' retention accounting: entries
// retained, entries evicted by the bound, and completions that arrived after
// their entry had already been evicted.
func (f *Federation) QueryLogStats() QueryLogStats { return f.ii.Journal().Stats() }

// RunLog returns the retained fragment runs, oldest first: one entry per
// executed remote fragment, its estimate beside what was observed, the volume
// it shipped (OutBytes) and how (Ship). A query's own are QueryRecord(id).Runs;
// summing their OutBytes gives its bytes-on-wire cost.
func (f *Federation) RunLog() []journal.Run { return f.ii.Journal().Runs.Tail(0) }

// ExplainLog returns the retained compilation winners (the explain table),
// oldest first.
func (f *Federation) ExplainLog() []journal.Winner { return f.ii.Journal().Winners.Tail(0) }

// RouteDecision is one recorded routing decision (policy, chosen route,
// reason).
type RouteDecision = journal.Decision

// RouteDecisions returns up to n most recent routing decisions, oldest
// first (n <= 0 returns everything retained). Both the round-robin load
// balancer and the weighted replica router record here.
func (f *Federation) RouteDecisions(n int) []RouteDecision { return f.ii.Journal().Decisions.Tail(n) }

// QueryRecord is everything retained about one query, joined by its ID: its
// submit/complete entry, every candidate its compilation explained and the
// winner chosen (one per compilation, so more than one after a retry), the
// route decisions, the fragment runs with estimate beside observation, the
// errors, the II merge (for a plan with merge work) and — when telemetry was
// on — its trace.
type QueryRecord struct {
	journal.Record
	// Trace is the query's span tree; nil when telemetry was off or the
	// trace ring has dropped it.
	Trace *Trace
}

// QueryRecord returns the joined record of the query with the given ID
// (QueryResult.ID); false when its entry has been evicted or never existed.
func (f *Federation) QueryRecord(id int64) (QueryRecord, bool) {
	rec, ok := f.ii.Journal().Record(id)
	return QueryRecord{Record: rec, Trace: f.tel.Tracer().Trace(id)}, ok
}

// ServerHandle controls one remote server for fault and load injection.
type ServerHandle struct {
	srv  *remote.Server
	link *network.Link
	mw   *metawrapper.MetaWrapper
}

// ID returns the server identifier.
func (h *ServerHandle) ID() string { return h.srv.ID() }

// SetLoad sets the background load level in [0,1].
func (h *ServerHandle) SetLoad(level float64) { h.srv.SetLoadLevel(level) }

// Load returns the current load level.
func (h *ServerHandle) Load() float64 { return h.srv.LoadLevel() }

// SetDown marks the server unavailable (down=true) or restores it.
func (h *ServerHandle) SetDown(down bool) { h.srv.SetDown(down) }

// Down reports the availability state.
func (h *ServerHandle) Down() bool { return h.srv.Down() }

// InjectFailures makes the next n executions fail transiently.
func (h *ServerHandle) InjectFailures(n int) { h.srv.InjectFailures(n) }

// SetCongestion sets the network congestion multiplier toward this server
// (1 = calm).
func (h *ServerHandle) SetCongestion(c float64) {
	if h.link != nil {
		h.link.SetCongestion(c)
	}
}

// PartitionNetwork cuts (true) or restores (false) the network path.
func (h *ServerHandle) PartitionNetwork(cut bool) {
	if h.link != nil {
		h.link.SetDown(cut)
	}
}

// Executed reports how many fragments the server has executed.
func (h *ServerHandle) Executed() int64 { return h.srv.Executed() }

// SetMasked hides the server from (or re-offers it to) the optimizer at the
// meta-wrapper layer: masked servers contribute no candidate plans. Mask
// transitions in either direction invalidate affected federated plan cache
// entries.
func (h *ServerHandle) SetMasked(masked bool) { h.mw.Mask(h.srv.ID(), masked) }

// Masked reports the meta-wrapper mask state.
func (h *ServerHandle) Masked() bool { return h.mw.Masked(h.srv.ID()) }

// StatementCacheStats snapshots the server's statement-cache counters.
func (h *ServerHandle) StatementCacheStats() StatementCacheStats {
	return h.srv.StatementCacheStats()
}

// ApplyUpdateBurst mutates n random rows of the named table, dirtying pages
// and drifting statistics.
func (h *ServerHandle) ApplyUpdateBurst(table string, n int, seed int64) error {
	return h.srv.ApplyUpdateBurst(table, n, seed)
}
