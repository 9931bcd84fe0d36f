// Package journal is the federation's one record of what happened to its
// queries. The paper spreads that record over three places — the Query
// Patroller's submit/complete log (§1), the meta-wrapper's compile-time items
// (a)–(d) and run-time item (e) (§2), and the explain table holding each
// compilation's winner (§1, runtime step 1) — and this tree adds the route
// policy's decisions, the availability probes and the II merges. Here they
// are entry kinds of one Journal, each a bounded sequence on package ring,
// all keyed by the query's ID: II.QueryContext opens the query entry, the ID
// rides the context (Scope), and every entry the meta-wrapper, the router and
// the integrator append carries it, so Record(id) joins a query's estimates
// to what was observed. Work outside a query — explain-mode compiles, direct
// meta-wrapper calls — is recorded under ID 0; probes carry no ID. The
// journal is QCC's only input: its one Subscriber is handed every run, error,
// probe and merge as it is written.
//
// Entries hold text and numbers only: nothing here points into a compilation
// (the package imports neither optimizer, integrator nor remote), so a
// retained entry never keeps a dropped plan cache alive.
package journal

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/admission"
	"repro/internal/ring"
	"repro/internal/simclock"
)

// maxTenantTallies bounds the per-tenant accounting map.
const maxTenantTallies = 32

// Query is the patroller record (§1): statement, submission and completion.
type Query struct {
	ID         int64
	Query      string
	SubmitAt   simclock.Time
	CompleteAt simclock.Time
	Completed  bool
	// Err is the failure text for unsuccessful queries.
	Err string
	// ResponseTime is pure execution time; QueueWait, the admission queue
	// wait that preceded it, is logged beside it and never folded in, so
	// QCC's calibration observations stay execution time.
	ResponseTime simclock.Time
	QueueWait    simclock.Time
	// Tenant names the submitting tenant ("" when untagged).
	Tenant string
}

// Candidate is one compile-time record (§2 items a–d): a fragment statement,
// the server it was mapped to, one physical plan and its cost as the wrapper
// estimated it and as the integrator saw it after calibration.
type Candidate struct {
	QueryID             int64
	Fragment            string
	ServerID            string
	PlanSig             string
	EstMS, CalibratedMS float64
	// CostKnown is false for no-estimate (file) sources.
	CostKnown bool
}

// Winner is one explain-table row: the global plan a compilation chose, after
// routing. Only the winner is stored — which is why QCC needs the simulated
// federated system to reconstruct alternatives (§4.2).
type Winner struct {
	QueryID    int64
	Query      string
	At         simclock.Time
	TotalEstMS float64
	Fragments  []WinnerFragment
}

// WinnerFragment is one fragment of a Winner.
type WinnerFragment struct {
	ID      string
	Server  string
	PlanSig string
	// Tables are the nicknames the fragment covers.
	Tables []string
	// EstMS is the calibrated estimate.
	EstMS float64
}

// Decision is one route-policy decision: which route it chose and why.
type Decision struct {
	QueryID int64
	At      simclock.Time
	// Query is the statement text ("" for dispatch-time entries).
	Query string
	// Policy names the deciding policy: "lb" or "weighted".
	Policy string
	// Route is the chosen route key; Reason explains it (rotation position,
	// score breakdown, ...).
	Route, Reason string
}

// Run is one run-time record (§2 item e): an executed fragment's estimate
// beside what the wrapper observed.
type Run struct {
	QueryID int64
	// FragID is the fragment's ID in the query's plan ("" outside a dispatch).
	FragID   string
	Fragment string
	ServerID string
	PlanSig  string
	// EstMS is the compile-time (uncalibrated) estimate of the executed plan,
	// ObservedMS the wrapper-visible response time.
	EstMS, ObservedMS float64
	// FirstTupleEstMS is the same estimate's time to first tuple, FirstRowMS
	// the wrapper-visible time to first row: zero when the fragment shipped
	// monolithically (no separate first-row observation).
	FirstTupleEstMS, FirstRowMS float64
	// OutBytes is the result volume actually shipped: four bytes, so Ship
	// shares its word (a fragment's result is far below 2 GiB).
	OutBytes int32
	Ship     Ship
}

// Ship is how a fragment's result crossed the wire.
type Ship uint8

const (
	RowShip     Ship = iota // boxed rows of the full (or ship-all-rows baseline) result
	ColShip                 // typed column batches of the same rows
	Pushdown                // partial-aggregate states as boxed rows
	PushdownCol             // partial-aggregate states as typed column batches
)

// ShipMode is the mode of a shipment of partial-aggregate states or of rows,
// over the columnar wire or not.
func ShipMode(pushdown, columnar bool) (s Ship) {
	if columnar {
		s = ColShip
	}
	if pushdown {
		s += Pushdown
	}
	return s
}

func (s Ship) String() string {
	return [...]string{"row-ship", "col-ship", "pushdown", "pushdown-col"}[s]
}

// Error is one failed interaction with a source: an explain or a shipment.
type Error struct {
	// Seq numbers the source observations (runs, errors, probes) from 1 in
	// the order written and handed to the subscriber. A run holds the next
	// number no error or probe holds, so the logs interleave back into it.
	Seq      int64
	QueryID  int64
	ServerID string
	Err      string
	Down     bool // the source is unavailable (down or partitioned)
}

// Probe is one availability probe of a source (§3.3), outside any query: its
// round trip or, when Err is not "", its failure.
type Probe struct {
	Seq      int64 // as Error.Seq
	ServerID string
	RTTMS    float64
	Err      string
	Down     bool
}

// Merge is the II-side merge (§3.2) of a plan with merge work: the merge
// estimate as compiled, already scaled by the II factor then in force,
// beside the II node's observed merge time.
type Merge struct {
	QueryID                     int64
	CalibratedEstMS, ObservedMS float64
}

// Subscriber learns from the observations as the journal writes them: each
// run, error, probe and merge exactly once, synchronously, in journal order.
// It runs under the lock that makes that order the logs' order, so it must
// not write to the journal.
type Subscriber interface {
	OnRun(Run)
	OnError(Error)
	OnProbe(Probe)
	OnMerge(Merge)
}

// Scope says whose work runs under a context: the query and, inside a
// fragment dispatch, the fragment and whether it ships partial-aggregate
// states. The zero Scope is work outside any query.
type Scope struct {
	Query    int64
	Frag     string
	Pushdown bool
}

type scopeKey struct{}

// WithScope returns ctx carrying s.
func WithScope(ctx context.Context, s Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeOf returns the context's Scope, zero when it has none.
func ScopeOf(ctx context.Context) Scope {
	s, _ := ctx.Value(scopeKey{}).(Scope)
	return s
}

// Journal holds the per-kind sequences: exported logs, each under its own
// lock, of which the observation kinds are written only through AddRun,
// AddError, AddProbe and AddMerge; the query entries, which a completion
// updates in place, sit behind Begin, Complete, Queries and Stats.
// Everything is safe for concurrent use.
type Journal struct {
	Candidates *ring.Log[Candidate]
	Winners    *ring.Log[Winner]
	Decisions  *ring.Log[Decision]
	Runs       *ring.Log[Run]
	Errors     *ring.Log[Error]
	Probes     *ring.Log[Probe]
	Merges     *ring.Log[Merge]

	// obs serializes observation writes with their delivery, so the subscriber
	// sees the logs' order; seq counts runs, errors and probes written.
	obs sync.Mutex
	sub Subscriber
	seq int64

	mu      sync.Mutex
	queries *ring.Ring[Query]
	// lateCompletions counts completions whose entry the bound had already
	// dropped; without the counter they would vanish silently.
	lateCompletions int64
	// tenants tallies per-tenant outcomes over the journal's whole lifetime
	// (evictions do not erase them), for at most maxTenantTallies tenants:
	// outcomes of further tenants are counted only in tenantsDropped, so a
	// tenant-name cardinality explosion cannot grow the journal.
	tenants        map[string]*TenantStats
	tenantsDropped int64
}

// New returns an empty journal.
func New() *Journal { return newJournal(ring.Entries, ring.Decisions) }

// newJournal is New with the bounds as parameters, for tests of retention.
func newJournal(entries, decisions int) *Journal {
	return &Journal{
		Candidates: ring.NewLog[Candidate](entries),
		Winners:    ring.NewLog[Winner](entries),
		Decisions:  ring.NewLog[Decision](decisions),
		Runs:       ring.NewLog[Run](entries),
		Errors:     ring.NewLog[Error](entries),
		Probes:     ring.NewLog[Probe](entries),
		Merges:     ring.NewLog[Merge](entries),
		queries:    ring.New[Query](entries),
		tenants:    map[string]*TenantStats{},
	}
}

// Subscribe makes s the journal's one subscriber; nil unsubscribes.
func (j *Journal) Subscribe(s Subscriber) {
	j.obs.Lock()
	defer j.obs.Unlock()
	j.sub = s
}

// AddRun records a fragment run and hands it to the subscriber.
func (j *Journal) AddRun(r Run) {
	j.obs.Lock()
	defer j.obs.Unlock()
	j.seq++
	j.Runs.Add(r)
	if j.sub != nil {
		j.sub.OnRun(r)
	}
}

// AddError numbers and records a source error and hands it on.
func (j *Journal) AddError(e Error) {
	j.obs.Lock()
	defer j.obs.Unlock()
	j.seq++
	e.Seq = j.seq
	j.Errors.Add(e)
	if j.sub != nil {
		j.sub.OnError(e)
	}
}

// AddProbe numbers and records a probe and hands it on.
func (j *Journal) AddProbe(p Probe) {
	j.obs.Lock()
	defer j.obs.Unlock()
	j.seq++
	p.Seq = j.seq
	j.Probes.Add(p)
	if j.sub != nil {
		j.sub.OnProbe(p)
	}
}

// AddMerge records an II merge and hands it on.
func (j *Journal) AddMerge(m Merge) {
	j.obs.Lock()
	defer j.obs.Unlock()
	j.Merges.Add(m)
	if j.sub != nil {
		j.sub.OnMerge(m)
	}
}

// Begin opens a query's entry and returns its ID: 1, 2, 3, ... in
// submission order.
func (j *Journal) Begin(query string, at simclock.Time, tenant string) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.queries.Total() + 1
	j.queries.Push(Query{ID: id, Query: query, SubmitAt: at, Tenant: tenant})
	return id
}

// Complete closes a query's entry with its completion time, its own response
// time (under concurrent submission the gap between submit and complete spans
// other queries' serialized charges), the admission wait that preceded it,
// and its error if it failed.
func (j *Journal) Complete(id int64, at, responseTime, queueWait simclock.Time, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, late := j.slot(id)
	if late {
		j.lateCompletions++
	}
	if e == nil {
		return
	}
	e.Completed, e.CompleteAt, e.ResponseTime, e.QueueWait = true, at, responseTime, queueWait
	if err != nil {
		e.Err = err.Error()
	}
	tt := j.tally(e.Tenant)
	switch {
	case tt == nil:
	case err != nil:
		tt.Failed++
		if errors.Is(err, admission.ErrAdmissionRejected) {
			tt.Shed++
		}
	default:
		tt.Completed++
		tt.ServedCostMS += responseTime
		tt.TotalQueueWait += queueWait
	}
}

// slot returns the retained entry of query id, or nil; late says the ID was
// issued but its entry has been evicted since. IDs are dense, so the entry
// sits at id − (oldest retained ID): no map.
func (j *Journal) slot(id int64) (e *Query, late bool) {
	oldest := j.queries.Evicted() + 1
	if id < oldest || id > j.queries.Total() {
		return nil, id >= 1 && id < oldest
	}
	return j.queries.At(int(id - oldest)), false
}

// tally resolves (or creates) a tenant's counters under the cardinality
// bound; nil for untagged queries and for tenants beyond it.
func (j *Journal) tally(tenant string) *TenantStats {
	if tenant == "" {
		return nil
	}
	tt := j.tenants[tenant]
	if tt == nil {
		if len(j.tenants) >= maxTenantTallies {
			j.tenantsDropped++
			return nil
		}
		tt = &TenantStats{Name: tenant}
		j.tenants[tenant] = tt
	}
	return tt
}

// Queries snapshots the retained query entries in submission order.
func (j *Journal) Queries() []Query {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queries.Tail(0)
}

// Record is everything the journal still retains about one query.
type Record struct {
	Query      Query
	Candidates []Candidate
	// Winners has one entry per compilation: more than one when a fragment
	// failure made the query re-optimize.
	Winners   []Winner
	Decisions []Decision
	Runs      []Run
	Errors    []Error
	Merges    []Merge
}

// Record joins the entries stamped with a query's ID; false when the query
// entry itself is unknown or already evicted.
func (j *Journal) Record(id int64) (Record, bool) {
	j.mu.Lock()
	e, _ := j.slot(id)
	if e == nil {
		j.mu.Unlock()
		return Record{}, false
	}
	query := *e
	j.mu.Unlock() // the scans below take each sequence's own lock, not the query log's
	return Record{
		Query:      query,
		Candidates: j.Candidates.Select(func(c *Candidate) bool { return c.QueryID == id }),
		Winners:    j.Winners.Select(func(w *Winner) bool { return w.QueryID == id }),
		Decisions:  j.Decisions.Select(func(d *Decision) bool { return d.QueryID == id }),
		Runs:       j.Runs.Select(func(r *Run) bool { return r.QueryID == id }),
		Errors:     j.Errors.Select(func(e *Error) bool { return e.QueryID == id }),
		Merges:     j.Merges.Select(func(m *Merge) bool { return m.QueryID == id }),
	}, true
}

// QueryStats is a snapshot of the query entries' retention accounting.
type QueryStats struct {
	// Retained is the number of query entries currently in the window.
	Retained int
	// Evicted counts entries the retention bound has dropped.
	Evicted int64
	// CompletedAfterEviction counts completions that arrived after their
	// entry had been evicted (the completion itself was not recorded).
	CompletedAfterEviction int64
	// Tenants is the per-tenant outcome accounting, sorted by served cost
	// descending (ties by name). It covers the journal's whole lifetime, not
	// just the retained window, and is bounded; see TenantsDropped.
	Tenants []TenantStats
	// TenantsDropped counts completions whose tenant could not be tallied
	// because the per-tenant map was already at its cardinality bound.
	TenantsDropped int64
}

// TenantStats is one tenant's slice of the query accounting.
type TenantStats struct {
	Name      string
	Completed int64
	Failed    int64
	// Shed is the subset of Failed that were typed admission refusals.
	Shed int64
	// ServedCostMS sums the response times of the tenant's completed queries.
	ServedCostMS simclock.Time
	// TotalQueueWait sums the admission queue waits of completed queries.
	TotalQueueWait simclock.Time
}

// Stats snapshots the retention counters and tenant tallies.
func (j *Journal) Stats() QueryStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := QueryStats{
		Retained:               j.queries.Len(),
		Evicted:                j.queries.Evicted(),
		CompletedAfterEviction: j.lateCompletions,
		TenantsDropped:         j.tenantsDropped,
	}
	for _, tt := range j.tenants {
		st.Tenants = append(st.Tenants, *tt)
	}
	sort.Slice(st.Tenants, func(a, b int) bool {
		if st.Tenants[a].ServedCostMS != st.Tenants[b].ServedCostMS {
			return st.Tenants[a].ServedCostMS > st.Tenants[b].ServedCostMS
		}
		return st.Tenants[a].Name < st.Tenants[b].Name
	})
	return st
}
