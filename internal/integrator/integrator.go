// Package integrator implements the Information Integrator (II): the
// federated query processor at the center of the paper's architecture. It
// parses federated SQL, decomposes it via the global optimizer, dispatches
// fragment execution descriptors through the meta-wrapper, merges fragment
// results locally (joins, aggregation, ordering), charges the merge work to
// the II node's own load model, and records every query in the federation's
// journal (package journal: the paper's query patroller log and explain
// table). A query runs on the goroutine that submitted it and starts none:
// its fragments ship one after another in plan order, then the merge reads
// their batches in virtual arrival order, so which fragment meets a failure
// or a load change depends on the plan alone. All timing is virtual: the
// fragments overlap on the virtual clock, and every completed query advances
// the shared simulated clock by its response time.
package integrator

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/journal"
	"repro/internal/metawrapper"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
	"repro/internal/wrapper"
)

// Router is the II's one routing hook (router.Router implements it; nil
// means plain cost-based routing).
type Router interface {
	// ChooseGlobal picks the plan to run from the optimizer's ranking at the
	// end of compilation (ranked[0] is the winner, its menu GlobalPlan.Options):
	// §4's load distribution or a replica choice, else the winner. turn is the
	// statement's rotation state; nil rotates nothing. The context carries the
	// query's journal scope.
	ChooseGlobal(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *Turn) *optimizer.GlobalPlan
	// RerouteFragment is the paper's long-running-query extension
	// ("periodically re-check the load and switch data sources if needed"):
	// it is consulted immediately before each fragment of a plan with a menu
	// dispatches, under the query's context, with the fragment's menu, and
	// may substitute another choice from it. Nil keeps the compiled choice.
	// Fragments ship in plan order, so the re-check sees the runs of the
	// fragments before it.
	RerouteFragment(ctx context.Context, choice optimizer.FragmentChoice, menu []optimizer.FragmentChoice) *optimizer.FragmentChoice
}

// Turn is one statement's place in §4's round robin: the plans it rotates over
// and the next pick. It lives in the statement's plan-cache entry, so whatever
// drops the entry starts the statement over at its winner. The router reads
// and writes it only under its own lock.
type Turn struct {
	Plans []*optimizer.GlobalPlan
	Next  int
}

// Config wires an II instance.
type Config struct {
	Catalog *catalog.Catalog
	MW      *metawrapper.MetaWrapper
	// Node models the II machine (merge costing and load).
	Node *remote.Server
	// Clock is the shared virtual clock.
	Clock *simclock.Clock
}

// Retries is the number of re-optimize attempts after a fragment execution
// failure.
const Retries = 2

// DefaultBatchRows is the row count of the batches fragment results ship in
// (colbatch.ShipBatchRows).
const DefaultBatchRows = colbatch.ShipBatchRows

// II is the information integrator. Its hooks (router, telemetry, admission
// and, in the optimizer, the II calibrator) are set only through their
// setters, and each may be nil; what it observes goes to the journal.
type II struct {
	cfg Config
	// router is the route policy.
	router Router
	// tel is the observability subsystem (nil or disabled is a no-op).
	tel *telemetry.Telemetry
	// adm gates every query between compilation and execution: the compiled
	// plan's calibrated cost classifies the query into a workload class and
	// the controller decides run / queue / shed. Under the default unlimited
	// policy the gate is a pass-through, as if there were none.
	adm   *admission.Controller
	opt   *optimizer.Optimizer
	plans *planCache
}

// New builds an II.
func New(cfg Config) *II {
	return &II{
		cfg: cfg,
		opt: &optimizer.Optimizer{
			Catalog: cfg.Catalog,
			MW:      cfg.MW,
			IINode:  cfg.Node,
		},
		plans: newPlanCache(),
	}
}

// BatchRows returns the fragment streaming batch size.
func (ii *II) BatchRows() int { return DefaultBatchRows }

// SetVectorized does nothing: the merge always runs on the columnar engine,
// consuming fragment batches as they arrive.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func (ii *II) SetVectorized(bool) {}

// Optimizer exposes the global optimizer (QCC's what-if analysis drives it
// directly with masking).
func (ii *II) Optimizer() *optimizer.Optimizer { return ii.opt }

// Journal exposes the query journal — the meta-wrapper's, so the II's query
// log and stored winners join what MW and the router record by query ID.
func (ii *II) Journal() *journal.Journal { return ii.cfg.MW.Journal() }

// Clock exposes the shared clock.
func (ii *II) Clock() *simclock.Clock { return ii.cfg.Clock }

// SetRouter installs or replaces the route policy (nil removes it) and clears
// the plan cache, so every statement's rotation starts over at its winner.
func (ii *II) SetRouter(r Router) {
	ii.router = r
	ii.ClearPlanCache()
}

// SetIICalibrator installs the II workload calibrator used when costing
// merge work during optimization.
func (ii *II) SetIICalibrator(c optimizer.IICalibrator) { ii.opt.IICalib = c }

// SetTelemetry installs the observability subsystem (nil disables). Like the
// other setters, install before serving queries; runtime on/off switching
// goes through telemetry.SetEnabled.
func (ii *II) SetTelemetry(t *telemetry.Telemetry) { ii.tel = t }

// SetAdmission installs the admission controller (nil removes the gate).
// Install before serving queries; runtime policy changes go through the
// controller itself.
func (ii *II) SetAdmission(c *admission.Controller) { ii.adm = c }

// PlanCacheStats snapshots the federated plan cache's counters.
func (ii *II) PlanCacheStats() PlanCacheStats { return ii.plans.snapshot() }

// ClearPlanCache drops every cached compilation.
func (ii *II) ClearPlanCache() { ii.plans.clear(InvalidateClear) }

// QueryResult is the outcome of one federated query.
type QueryResult struct {
	// ID is the query's journal ID: Journal().Record(ID) is everything
	// recorded for it, and its trace carries the same ID.
	ID int64
	// Rel is the merged result.
	Rel *sqltypes.Relation
	// Plan is the executed global plan.
	Plan *optimizer.GlobalPlan
	// FragmentTimes maps fragment IDs to observed response times.
	FragmentTimes map[string]simclock.Time
	// ExecutedServers maps fragment IDs to the servers that actually ran
	// them — identical to the plan's routing unless the router's dispatch
	// rescore substituted a fragment.
	ExecutedServers map[string]string
	// MergeTime is the observed II-side merge time.
	MergeTime simclock.Time
	// ResponseTime is the end-user response time. The merge works on each
	// batch from the instant it arrives, so only the work that waited for a
	// late batch follows the slowest fragment.
	// max(FragmentTimes) <= ResponseTime <= max(FragmentTimes) + MergeTime,
	// and the difference from the upper bound is the overlapped merge work.
	ResponseTime simclock.Time
	// FirstRowTime is when the first merged result row could be emitted: the
	// latest first-batch arrival across fragments plus the merge, and never
	// later than ResponseTime.
	FirstRowTime simclock.Time
	// Retried counts re-optimizations after fragment failures.
	Retried int
	// QueueWait is the virtual time spent in the admission queue before
	// execution (zero when admission is disabled or the query was admitted
	// immediately). It is NOT part of ResponseTime, so calibration
	// observations stay pure execution time; end-to-end latency is
	// QueueWait + ResponseTime.
	QueueWait simclock.Time
	// AdmissionClass is the workload class the query ran under ("" when no
	// admission controller is installed).
	AdmissionClass string
	// Tenant is the tenant the query was submitted under ("" when untagged).
	Tenant string
}

// Query compiles and executes a federated SQL statement.
func (ii *II) Query(sql string) (*QueryResult, error) {
	return ii.QueryContext(context.Background(), sql)
}

// QueryContext compiles and executes a federated SQL statement under the
// given context. It is safe for concurrent use: each completed query charges
// its response time to the shared virtual clock through Clock.Charge, which
// serializes charges so that concurrent submissions reserve disjoint
// virtual-time intervals (the final clock value is the sum of all response
// times, independent of goroutine interleaving).
func (ii *II) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	submitAt := ii.cfg.Clock.Now()
	id := ii.Journal().Begin(sql, submitAt, admission.TenantFromContext(ctx))
	ctx = journal.WithScope(ctx, journal.Scope{Query: id})
	tel := ii.tel
	trace := tel.StartTrace(id, sql, ii.cfg.Clock.Now())
	if trace != nil {
		ctx = telemetry.ContextWithSpan(ctx, trace.Root)
	}
	res, grant, err := ii.run(ctx, sql)
	ii.cfg.Clock.AdvanceTo(ii.cfg.Clock.Now()) // flush due events
	if err != nil {
		grant.Release()
		tel.Active().Counter("ii.query_errors", "").Inc()
		tel.Tracer().FinishTrace(trace, err)
		now := ii.cfg.Clock.Now()
		ii.Journal().Complete(id, now, now-submitAt, 0, err)
		return nil, err
	}
	wait := grant.QueueWait()
	res.ID = id
	res.QueueWait = wait
	res.AdmissionClass = grant.Class()
	res.Tenant = grant.Tenant()
	if trace != nil {
		// The root span covers queue wait plus execution; with admission
		// disabled the wait is zero and the duration is exactly the
		// response time, as before.
		trace.Root.End(res.ResponseTime + wait)
		tel.Tracer().FinishTrace(trace, nil)
	}
	tel.Active().Counter("ii.queries", "").Inc()
	tel.Active().Histogram("query.first_row_ms", "", nil).Observe(float64(res.FirstRowTime))
	_, end := ii.cfg.Clock.Charge(res.ResponseTime)
	ii.Journal().Complete(id, end, res.ResponseTime, wait, nil)
	// Release after charging so the next admitted waiter's queue wait spans
	// this query's serialized virtual-time interval.
	grant.Release()
	return res, nil
}

// Compile optimizes without executing and records the winner in the journal
// (the explain table) under query ID 0 — the paper's "explain mode". Repeat
// compilations of a statement are served from the federated plan cache
// (plancache.go) while its entry stays valid: only calibration, winner re-pick
// and routing re-run on a hit. Explain mode takes no rotation turn.
func (ii *II) Compile(sql string) (*optimizer.GlobalPlan, error) {
	ranked, _, err := ii.compile(context.Background(), sql, nil)
	if err != nil {
		return nil, err
	}
	return ii.finishCompile(context.Background(), ranked, nil), nil
}

// compile is the cache-aware compilation path. exclude (may be nil) steers
// the WARM path away from servers that failed the query's earlier fragment
// attempts. The cold path deliberately ignores it: recompiling from scratch
// re-Explains every candidate, which is what discovers whether a failed
// server is really gone — a transient failure may retry on the same (still
// cheapest) source, exactly as before the cache existed. The turn is nil when
// the compile cached nothing.
func (ii *II) compile(ctx context.Context, sql string, exclude optimizer.ExcludeFunc) ([]*optimizer.GlobalPlan, *Turn, error) {
	sp := telemetry.SpanFrom(ctx)
	tel := ii.tel
	if cc := ii.plans.lookup(sql); cc != nil {
		if cause := ii.validateCached(cc); cause != "" {
			ii.plans.invalidate(sql, cause)
		} else if ranked, err := ii.opt.EnumerateFromOptions(cc.stmt, cc.decomp, cc.frags, exclude); err == nil {
			ii.plans.recordHit()
			tel.Active().Counter("ii.plancache_hits", "").Inc()
			sp.Emit("plancache.lookup", telemetry.LayerII, "", 0).SetAttr("hit", "true")
			sp.Emit("calibrate", telemetry.LayerQCC, "", 0)
			return ranked, &cc.turn, nil
		} else {
			// Every cached candidate for some fragment is excluded or fenced:
			// fall through to a cold compile, which sees current Explain
			// availability.
			ii.plans.recordMiss()
		}
	}
	sp.Emit("plancache.lookup", telemetry.LayerII, "", 0).SetAttr("hit", "false")
	tel.Active().Counter("ii.plancache_misses", "").Inc()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sp.Emit("parse", telemetry.LayerII, "", 0)
	// The mask snapshot precedes collection, so a mask that flips while the
	// candidates are being collected differs from it at the next lookup.
	var masked map[string]bool
	if ii.cfg.MW != nil {
		masked = ii.cfg.MW.MaskedSet()
	}
	decomp, frags, err := ii.opt.Collect(ctx, stmt)
	if err != nil {
		return nil, nil, err
	}
	// Cache before enumerating: even if every option calibrates to +Inf right
	// now (fenced), the collected raw candidates stay valid for when the
	// fence lifts.
	var turn *Turn
	if cc := newCachedCompilation(sql, stmt, decomp, frags, masked); cc != nil {
		ii.plans.insert(cc)
		turn = &cc.turn
	}
	sp.Emit("calibrate", telemetry.LayerQCC, "", 0)
	ranked, err := ii.opt.EnumerateFromOptions(stmt, decomp, frags, nil)
	return ranked, turn, err
}

// finishCompile applies the load-distribution route policy to the ranking and
// records the plan it picks — the shared tail of explain mode and queries.
// The entry is text and numbers copied out of the plan, never the plan.
func (ii *II) finishCompile(ctx context.Context, ranked []*optimizer.GlobalPlan, turn *Turn) *optimizer.GlobalPlan {
	gp := ranked[0]
	if ii.router != nil {
		gp = ii.router.ChooseGlobal(ctx, ranked, turn)
	}
	frags := make([]journal.WinnerFragment, len(gp.Fragments))
	for i, f := range gp.Fragments {
		tables := make([]string, len(f.Spec.Tables))
		for t, tr := range f.Spec.Tables {
			tables[t] = tr.Name
		}
		frags[i] = journal.WinnerFragment{
			ID: f.Spec.ID, Server: f.ServerID, PlanSig: f.Plan.Signature, Tables: tables, EstMS: f.Plan.Est.TotalMS,
		}
	}
	ii.Journal().Winners.Add(journal.Winner{
		QueryID:    journal.ScopeOf(ctx).Query,
		Query:      gp.Query,
		At:         ii.cfg.Clock.Now(),
		TotalEstMS: gp.TotalEstMS,
		Fragments:  frags,
	})
	return gp
}

// newCachedCompilation assembles the cacheable artifact for one compile: the
// parsed statement, decomposition and raw candidate sets, plus what
// validation compares against — each fragment's referenced tables, the
// candidate servers, and the mask snapshot taken before collection. Masked
// servers contributed no options, so an unmask must invalidate too. It returns nil when an unmasked candidate
// contributed no options: its Explain failed (server down or link
// partitioned), and nothing a lookup reads would notice it answering again,
// so the statement compiles cold until it does.
func newCachedCompilation(sql string, stmt *sqlparser.SelectStmt, decomp *optimizer.Decomposition, frags []optimizer.FragmentOptions, masked map[string]bool) *cachedCompilation {
	cc := &cachedCompilation{sql: sql, stmt: stmt, decomp: decomp, frags: frags, masked: masked}
	cc.fragTables = make([][]string, len(frags))
	seen := map[string]bool{}
	for i, fo := range frags {
		refs := fo.Spec.Stmt.Tables()
		tables := make([]string, len(refs))
		for j, tr := range refs {
			tables[j] = tr.Name
		}
		cc.fragTables[i] = tables
		for _, sid := range fo.Spec.Candidates {
			if !masked[sid] && !answered(fo.Options, sid) {
				return nil
			}
			if !seen[sid] {
				seen[sid] = true
				cc.servers = append(cc.servers, sid)
			}
		}
	}
	return cc
}

// answered reports whether server contributed any of the options.
func answered(options []optimizer.SourceOption, server string) bool {
	for _, so := range options {
		if so.ServerID == server {
			return true
		}
	}
	return false
}

// validateCached checks a cached compilation against current federation
// state, returning the invalidation cause or "" when still usable. Note what
// it does NOT check: calibration factors and availability fencing, which the
// warm re-pick applies fresh on every hit.
func (ii *II) validateCached(cc *cachedCompilation) string {
	mw := ii.cfg.MW
	if mw == nil {
		return ""
	}
	cur := mw.MaskedSet()
	for _, id := range cc.servers {
		if cur[id] != cc.masked[id] {
			return InvalidateMask
		}
	}
	for i, fo := range cc.frags {
		checked := map[string]bool{}
		for _, so := range fo.Options {
			if checked[so.ServerID] {
				continue
			}
			checked[so.ServerID] = true
			if so.Versions == nil {
				return InvalidateVersion
			}
			curVers, err := mw.TableVersions(so.ServerID, cc.fragTables[i])
			if err != nil {
				return InvalidateVersion
			}
			for table, v := range so.Versions {
				if curVers[table] != v {
					return InvalidateVersion
				}
			}
		}
	}
	return ""
}

func (ii *II) run(ctx context.Context, sql string) (*QueryResult, *admission.Grant, error) {
	var lastErr error
	// grant is the admission slot, acquired once after the first successful
	// compile (the compiled plan's calibrated cost is the classification
	// signal) and held across retries; the caller releases it.
	var grant *admission.Grant
	// excluded accumulates the (fragment, server) pairs that failed earlier
	// attempts of THIS query; the warm compile path steers around them so a
	// retry reuses the cached candidate sets instead of recompiling from
	// zero.
	var excluded map[string]map[string]bool
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, grant, fmt.Errorf("integrator: query cancelled after %d attempts: %w", attempt, lastErr)
			}
			return nil, grant, err
		}
		var exclude optimizer.ExcludeFunc
		if len(excluded) > 0 {
			ex := excluded
			exclude = func(fragID, serverID string) bool { return ex[fragID][serverID] }
		}
		ranked, turn, err := ii.compile(ctx, sql, exclude)
		if err != nil {
			return nil, grant, err
		}
		gp := ii.finishCompile(ctx, ranked, turn)
		if grant == nil && ii.adm != nil {
			g, err := ii.adm.Admit(ctx, admission.Request{
				Query:  sql,
				CostMS: gp.TotalEstMS,
				Class:  admission.ClassFromContext(ctx),
				Tenant: admission.TenantFromContext(ctx),
			})
			if err != nil {
				return nil, nil, err
			}
			grant = g
			if grant.Queued() {
				// Only genuinely queued queries record a wait span: the
				// unlimited (disabled) policy never queues, keeping the span
				// sequence identical to an engine without admission.
				ws := telemetry.SpanFrom(ctx).Emit("admission.wait", telemetry.LayerII, "", grant.QueueWait())
				ws.SetAttr("class", grant.Class())
				if t := grant.Tenant(); t != "" {
					ws.SetAttr("tenant", t)
				}
			}
		}
		res, err := ii.ExecuteContext(ctx, gp)
		if err == nil {
			res.Retried = attempt
			return res, grant, nil
		}
		lastErr = err
		var fe *FragmentError
		if errors.As(err, &fe) {
			if excluded == nil {
				excluded = map[string]map[string]bool{}
			}
			if excluded[fe.FragID] == nil {
				excluded[fe.FragID] = map[string]bool{}
			}
			excluded[fe.FragID][fe.ServerID] = true
		}
		if attempt < Retries {
			ii.tel.Active().Counter("ii.retries", "").Inc()
			rs := telemetry.SpanFrom(ctx).Emit("retry", telemetry.LayerII, "", 0)
			rs.SetAttr("attempt", fmt.Sprint(attempt+1))
			rs.SetAttr("cause", err.Error())
		}
		if attempt >= Retries {
			// attempt counts the retries already consumed: the failed run
			// above was attempt number attempt+1, of which `attempt` were
			// retries.
			return nil, grant, fmt.Errorf("integrator: query failed after %d retries: %w", attempt, lastErr)
		}
	}
}

// Execute runs a compiled global plan with a background context.
func (ii *II) Execute(gp *optimizer.GlobalPlan) (*QueryResult, error) {
	return ii.ExecuteContext(context.Background(), gp)
}

// FragmentError is a fragment execution failure tagged with the routing that
// produced it. The retry loop unwraps it to steer the next (warm) compile
// away from the failed server.
type FragmentError struct {
	FragID   string
	ServerID string
	Err      error
}

func (e *FragmentError) Error() string {
	return fmt.Sprintf("integrator: fragment %s at %s: %v", e.FragID, e.ServerID, e.Err)
}

func (e *FragmentError) Unwrap() error { return e.Err }

// dispatchFragment ships one fragment through MW's streaming data path,
// queueing every batch in the query's arrivals as it is received.
func (ii *II) dispatchFragment(ctx context.Context, f optimizer.FragmentChoice, arr *arrivals, pos int) error {
	key := metawrapper.FragmentKey{ServerID: f.ServerID, Signature: f.Spec.Sig}
	out, err := ii.cfg.MW.Ship(ctx, key, f.Plan, f.RawEst, DefaultBatchRows, func(b *remote.Batch, arrive simclock.Time) {
		arr.push(pos, b, arrive)
	})
	if err != nil {
		return err
	}
	arr.queues[pos].serverID, arr.queues[pos].outcome = f.ServerID, out
	return nil
}

// arrivals holds a query's shipped fragment batches for the merge, one queue
// per fragment in plan position. Batches stay queued once read (they are
// views of results the remote side holds anyway).
type arrivals struct {
	queues []fragQueue
	taken  timeline
}

type fragQueue struct {
	batches []arrival
	// Where the fragment ran and how long it took.
	serverID string
	outcome  *wrapper.StreamOutcome
}

func newArrivals(fragments int) *arrivals {
	return &arrivals{queues: make([]fragQueue, fragments)}
}

// arrival is one fragment batch and the virtual time, since the fragment's
// start, at which it finished arriving.
type arrival struct {
	*remote.Batch
	arrive simclock.Time
}

// push queues the fragment's next batch.
func (a *arrivals) push(pos int, b *remote.Batch, arrive simclock.Time) {
	q := &a.queues[pos]
	q.batches = append(q.batches, arrival{b, arrive})
}

// earliest returns, among the next batches of the parts (plan positions), n[k]
// being the batches already taken from part k, the one that arrived first on
// the virtual clock, plan position breaking ties, with its part; part -1 once
// every part is exhausted. The merge reads a logical fragment's shards in this
// order, so it depends on the model alone.
func (a *arrivals) earliest(parts, n []int) (arrival, int) {
	var next arrival
	at := -1
	for k, pos := range parts {
		q := a.queues[pos].batches
		if n[k] < len(q) && (at < 0 || q[n[k]].arrive < next.arrive) {
			next, at = q[n[k]], k
		}
	}
	return next, at
}

// fragCursor is the merge's source for one logical fragment: the
// queues of its shards (parts, plan positions in plan order), read in arrival
// order (earliest). A sharded fragment's batches carry the leaf's schema
// (sch), one pointer per logical fragment, so kernels compile their
// expressions once, not once per shard; a single part's stream has one
// pointer already. Once ctx (the caller's) is cancelled, the cursor fails, so
// a cancel stops a long merge.
type fragCursor struct {
	ctx   context.Context
	arr   *arrivals
	sch   *sqltypes.Schema
	parts []int
	n     []int // see earliest
}

// Next is exec.BatchStream's source.
func (c *fragCursor) Next() (*colbatch.Batch, error) {
	if c.n == nil {
		c.n = make([]int, len(c.parts))
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	next, at := c.arr.earliest(c.parts, c.n)
	if at < 0 {
		return nil, nil
	}
	c.n[at]++
	c.arr.taken.take(next.arrive)
	if len(c.parts) == 1 || next.Col.Schema == c.sch {
		return next.Col, nil
	}
	return next.Col.WithColumns(c.sch, next.Col.Cols), nil
}

// timeline is the merge's place on the query's virtual clock. The
// merge is one pull pipeline on one goroutine: the work charged when a leaf
// takes a batch needed only earlier batches, the rest cannot start before this
// one arrives. take logs both, for an arrival later than every earlier one.
type timeline struct {
	node  *remote.Server
	work  *exec.Resources // the running merge's charges
	last  simclock.Time
	pulls []pull
}

type pull struct {
	arrive simclock.Time
	before float64 // the node's zero-load price of the work charged before it
}

func (t *timeline) take(arrive simclock.Time) {
	if arrive > t.last {
		t.last = arrive
		t.pulls = append(t.pulls, pull{arrive, t.node.EstimateTime(*t.work)})
	}
}

// overlapped is when a merge costing mergeTime ends if it does each share of
// its work (priced idle with none done, total at the end) once the batches it
// needs are there: the latest "arrival + work still to do". No share exceeds
// mergeTime, so store-and-forward bounds it (one arrival instant meets it).
func overlapped(pulls []pull, idle, total float64, mergeTime simclock.Time) simclock.Time {
	end := mergeTime
	for _, p := range pulls {
		left := mergeTime
		if total > idle {
			left *= simclock.Time((total - p.before) / (total - idle))
		}
		end = max(end, p.arrive+left)
	}
	return end
}

// ExecuteContext runs a compiled global plan on the calling goroutine: the
// fragments ship through MW one after another in plan order, the router's
// dispatch re-check consulted immediately before each, and the local merge
// then consumes their batches in virtual arrival order. A fragment error
// returns at once, and the fragments after it do not ship.
func (ii *II) ExecuteContext(ctx context.Context, gp *optimizer.GlobalPlan) (*QueryResult, error) {
	root := telemetry.SpanFrom(ctx)
	queryID := journal.ScopeOf(ctx).Query
	pushdown := gp.Decomp.Sharded != nil && gp.Decomp.Sharded.Partial != nil
	arr := newArrivals(len(gp.Fragments))
	for i := range gp.Fragments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A copy of its own: a reroute replaces it.
		f := gp.Fragments[i]
		compiled := f.ServerID
		if ii.router != nil && len(gp.Options) == len(gp.Fragments) {
			if alt := ii.router.RerouteFragment(ctx, f, gp.Options[i]); alt != nil {
				f = *alt
			}
		}
		fspan := root.Child("fragment", telemetry.LayerMW, f.ServerID)
		fspan.SetAttr("frag", f.Spec.ID)
		if f.Spec.Shard != nil {
			// Distinguish scatter-gather fan-out from replica routing in
			// traces: shard fragments carry their shard index.
			fspan.SetAttr("shard", fmt.Sprintf("%d", f.Spec.Shard.Index))
			ii.tel.Active().Counter("shard.fragments", f.ServerID).Inc()
		}
		if f.ServerID != compiled {
			fspan.SetAttr("rerouted", "true")
		}
		// The meta-wrapper stamps the fragment's run entry from this scope
		// and writes the ship mode there and on the span.
		dctx := journal.WithScope(ctx, journal.Scope{Query: queryID, Frag: f.Spec.ID, Pushdown: pushdown && f.Spec.Shard != nil})
		if fspan != nil {
			dctx = telemetry.ContextWithSpan(dctx, fspan)
		}
		if err := ii.dispatchFragment(dctx, f, arr, i); err != nil {
			fspan.SetAttr("error", err.Error())
			fspan.End(0)
			return nil, &FragmentError{FragID: f.Spec.ID, ServerID: f.ServerID, Err: err}
		}
		fspan.End(arr.queues[i].outcome.ResponseTime)
		ii.tel.Active().Counter("ii.fragments", f.ServerID).Inc()
	}

	rel, res, blocking, err := ii.merge(ctx, gp, arr)
	if err != nil {
		return nil, err
	}
	ii.tel.Active().Counter("exec.vectorized", "ii").Inc()

	fragTimes := make(map[string]simclock.Time, len(arr.queues))
	executed := make(map[string]string, len(arr.queues))
	var remotePhase, firstPhase simclock.Time
	for pos, q := range arr.queues {
		id := gp.Fragments[pos].Spec.ID
		fragTimes[id] = q.outcome.ResponseTime
		executed[id] = q.serverID
		remotePhase = max(remotePhase, q.outcome.ResponseTime)
		firstPhase = max(firstPhase, q.outcome.FirstRowTime)
	}
	// The II node is charged once for the whole merge, and the charge sits
	// where the merge's batches arrived. The merge waits for every fragment
	// (no cancel-on-LIMIT yet), and the merge span is the part of the work the
	// arrivals did not hide: root = max fragment + merge span.
	mergeTime := ii.cfg.Node.Observe(res)
	response := max(remotePhase, overlapped(arr.taken.pulls, ii.cfg.Node.EstimateTime(exec.Resources{}), ii.cfg.Node.EstimateTime(res), mergeTime))
	root.Advance(remotePhase)
	if msp := root.Emit("merge", telemetry.LayerII, "", response-remotePhase); msp != nil {
		msp.SetAttr("work_ms", fmt.Sprintf("%.4f", float64(mergeTime)))
		msp.SetAttr("overlap_ms", fmt.Sprintf("%.4f", float64(remotePhase+mergeTime-response)))
		if blocking != "" {
			msp.SetAttr("blocking", blocking)
		}
	}
	if gp.MergeEstMS > 0 {
		ii.Journal().AddMerge(journal.Merge{QueryID: queryID, CalibratedEstMS: gp.MergeEstMS, ObservedMS: float64(mergeTime)})
	}
	return &QueryResult{
		Rel:             rel,
		Plan:            gp,
		FragmentTimes:   fragTimes,
		ExecutedServers: executed,
		MergeTime:       mergeTime,
		ResponseTime:    response,
		// A lower bound for a tree that pipelines, an understatement for a
		// blocking one (the merge span's "blocking" attribute), whose first row
		// needs every batch: ROADMAP item 6(a).
		FirstRowTime: min(firstPhase+mergeTime, response),
	}, nil
}

// merge combines fragment results at the II node: it builds one operator
// tree over one leaf per logical fragment and runs it once, as a pull
// pipeline over the shipped batches in arr, boxing the output batches
// straight into the result. It returns the rows, what computing them
// consumed at the II node, and the tree's outermost pipeline-breaking stage
// ("" when none).
func (ii *II) merge(ctx context.Context, gp *optimizer.GlobalPlan, arr *arrivals) (*sqltypes.Relation, exec.Resources, string, error) {
	labels, parts := logicalFragments(gp)
	leaves := make([]exec.Operator, len(labels))
	ectx := &exec.Context{}
	batches := len(gp.Fragments)
	for _, f := range gp.Fragments {
		batches += int(f.Plan.Est.Card) / DefaultBatchRows
	}
	arr.taken = timeline{node: ii.cfg.Node, work: &ectx.Res, pulls: make([]pull, 0, batches)}
	for i, label := range labels {
		schema := gp.Fragments[parts[i][0]].Plan.Root.Schema()
		leaves[i] = &exec.BatchStream{Sch: schema, Label: label, Src: &fragCursor{ctx: ctx, arr: arr, sch: schema, parts: parts[i]}}
	}
	top, err := mergePlan(gp, leaves, parts)
	if err != nil {
		return nil, exec.Resources{}, "", fmt.Errorf("integrator: building merge plan: %w", err)
	}
	outs, err := exec.ExecuteBatches(top, ectx)
	if err != nil {
		return nil, exec.Resources{}, "", fmt.Errorf("integrator: merging: %w", err)
	}
	return colbatch.ToRelation(outs), ectx.Res, exec.BlockingStage(top), nil
}

// mergePlan builds the II-side operator tree over the logical fragments'
// leaves: a single fragment is the answer as it arrived (one cursor op per
// row); a single sharded table feeds the union of its shard results to the
// statement tail — ShardAggFinal merging partial aggregate states under
// pushdown, the full tail over gathered rows otherwise; anything else joins
// the logical fragments left to right on the cross-source conjuncts under the
// full tail, each hash join built on the input QCC's calibrated estimates say
// finishes first (a logical fragment finishes with its slowest part).
func mergePlan(gp *optimizer.GlobalPlan, leaves []exec.Operator, parts [][]int) (exec.Operator, error) {
	if gp.Decomp.SingleFragment {
		return leaves[0], nil
	}
	if sh := gp.Decomp.Sharded; sh != nil {
		if sh.Partial != nil {
			return exec.BuildShardFinal(gp.Stmt, sh.Base, leaves[0])
		}
		return exec.BuildTop(gp.Stmt, leaves[0])
	}
	finish := make([]float64, len(parts))
	for i, ps := range parts {
		for _, pos := range ps {
			finish[i] = max(finish[i], gp.Fragments[pos].Plan.Est.TotalMS)
		}
	}
	return exec.BuildTop(gp.Stmt, exec.JoinLeftDeep(leaves, gp.Decomp.Cross, finish))
}

// logicalFragments groups the plan's fragments into logical ones, in plan
// order: fragments sharing Spec.Shard.Of are the shards of one table and
// concatenate; any other fragment is a group of its own. It returns each
// group's label and the plan positions of its parts.
func logicalFragments(gp *optimizer.GlobalPlan) (labels []string, parts [][]int) {
	for pos, f := range gp.Fragments {
		label := f.Spec.ID
		if f.Spec.Shard != nil {
			label = f.Spec.Shard.Of
		}
		g := slices.Index(labels, label)
		if g < 0 {
			g = len(labels)
			labels = append(labels, label)
			parts = append(parts, nil)
		}
		parts[g] = append(parts[g], pos)
	}
	return labels, parts
}
