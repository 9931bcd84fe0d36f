// Package admission implements the integrator's workload-management
// subsystem: the gating scheduler that sits where DB2 Query Patroller sat in
// the paper's testbed — in front of the information integrator — and decides
// which queries run now, which wait, and which are turned away.
//
// Every query is classified into one of two workload classes, interactive
// or batch, by its calibrated estimated cost from the plan cache/optimizer
// (at most InteractiveCeilingMS is interactive), or by an explicit class tag
// carried on the context (WithClass). The controller then enforces:
//
//   - a global concurrency cap across both classes;
//   - per-class concurrency caps, so heavy classes cannot starve light ones;
//   - priority queueing: when capacity frees up, a queued interactive query
//     is admitted before any queued batch query (priority preempts queue
//     position, never running queries);
//   - cost holds: a query whose calibrated estimate exceeds its class's
//     HoldCostMS is parked in the queue rather than admitted, even when
//     capacity is free; and
//   - queue deadlines: a query that has waited longer than its class's
//     QueueDeadline in virtual time is shed with a typed, errors.Is-matchable
//     rejection (ErrQueueTimeout, which also matches ErrAdmissionRejected and
//     simclock.ErrDeadline).
//
// Registered tenants (RegisterTenant) share each class by weighted fair
// queuing, and a tenant's queue bound refuses its arrivals beyond it.
//
// All waiting happens in virtual time: queue wait is the simulated interval
// between enqueue and grant, and deadlines are virtual-clock events that fire
// as running queries charge their response times. When nothing is running and
// only held queries remain queued, the controller advances the clock to the
// earliest queue deadline itself so sheds always fire — the simulation can
// never deadlock on an empty machine.
//
// The zero Policy (every cap unlimited, no holds) makes the controller a
// pure pass-through: Admit takes one mutex acquisition, never touches the
// clock, and the engine behaves bit-for-bit as if no controller were
// installed.
package admission

import (
	"context"
	"sync"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Request describes one query asking to be admitted.
type Request struct {
	// Query is the statement text (diagnostics only).
	Query string
	// CostMS is the calibrated estimated cost from the plan cache/optimizer;
	// classification and cost holds key on it.
	CostMS float64
	// Class, when it names a class (ClassInteractive or ClassBatch), pins
	// the workload class instead of classifying by cost (see WithClass).
	// Other names fall back to cost classification.
	Class string
	// Tenant names the tenant submitting the query (see WithTenant). With no
	// tenants registered it is recorded but has no scheduling effect; with
	// tenants registered, unknown names run as unregistered tenants with
	// weight 1 and no queue bound, and the empty name is the default tenant.
	Tenant string
}

// Config wires a Controller.
type Config struct {
	// Clock is the shared virtual clock queue waits and deadlines run on.
	Clock *simclock.Clock
	// Telemetry receives queue-depth gauges, per-class wait histograms and
	// shed/reject counters (nil or disabled is a no-op).
	Telemetry *telemetry.Telemetry
	// Policy is the initial admission policy; the zero value is unlimited
	// (admission disabled).
	Policy Policy
}

type waiterState int

const (
	stateQueued waiterState = iota
	stateGranted
	stateShed
)

// waiter is one queued admission request.
type waiter struct {
	class      class
	tenant     *tenantState // nil when the controller is untenanted
	tenantName string       // the request's tag, as its Grant reports it
	cost       float64
	seq        int64
	held       bool
	// queued is set once the request has failed to be admitted on arrival;
	// only such a waiter's decision is delivered (see unlock).
	queued     bool
	enqueuedAt simclock.Time
	deadlineAt simclock.Time // 0 = no queue deadline
	state      waiterState
	wait       simclock.Time
	// err is the decision: nil = admitted, non-nil = typed rejection. It
	// reaches Admit through ch and Submit's caller through done.
	err      error
	ch       chan error
	done     func(*Grant, error)
	cancelDL simclock.Cancel
}

// grant is the slot a granted waiter holds.
func (w *waiter) grant(c *Controller) *Grant {
	return &Grant{c: c, class: w.class, tenant: w.tenantName, ts: w.tenant, wait: w.wait, queued: w.queued}
}

// deliver hands the waiter's decision to whoever asked.
func (w *waiter) deliver(c *Controller) {
	switch {
	case w.done == nil:
		w.ch <- w.err
	case w.err != nil:
		w.done(nil, w.err)
	default:
		w.done(w.grant(c), nil)
	}
}

// classTally is the per-class accounting behind Stats.
type classTally struct {
	running     int
	queued      int
	admitted    int64
	queuedTotal int64
	held        int64
	shed        int64
	rejected    int64
	cancelled   int64
	waitTotal   simclock.Time
}

// Controller is the admission gate. It is safe for concurrent use; one
// instance fronts one integrator.
type Controller struct {
	clock *simclock.Clock
	tel   *telemetry.Telemetry

	mu        sync.Mutex
	policy    Policy
	unlimited bool
	running   int
	queue     []*waiter
	seq       int64
	tallies   [numClasses]classTally
	releases  int64
	// decided holds the queued waiters decided under mu, delivered by unlock.
	decided []*waiter

	// tenanted is true while at least one tenant is registered; it routes
	// every admission through the fair queue. tenants holds registered and
	// auto-created tenant states; classVT is the per-class fair-queuing
	// virtual time (the start tag of the class's most recent grant).
	tenanted bool
	tenants  map[string]*tenantState
	classVT  [numClasses]float64
	// arrivals counts tenant resolutions; tenantsEvicted counts auto states
	// dropped past maxAutoTenants.
	arrivals       int64
	tenantsEvicted int64
}

// New builds a controller over the given config.
func New(cfg Config) *Controller {
	return &Controller{
		clock:     cfg.Clock,
		tel:       cfg.Telemetry,
		policy:    cfg.Policy,
		unlimited: cfg.Policy.Unlimited(),
		tenants:   map[string]*tenantState{},
	}
}

// Grant is an admitted query's slot; Release returns it when the query
// finishes (success or failure). Release is idempotent and nil-safe.
type Grant struct {
	c      *Controller
	class  class
	tenant string
	ts     *tenantState
	wait   simclock.Time
	queued bool
	once   sync.Once
}

// Release returns the concurrency slot, admitting the best queued waiter.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.once.Do(func() { g.c.release(g.class, g.ts) })
}

// Class names the workload class the query was admitted under.
func (g *Grant) Class() string {
	if g == nil {
		return ""
	}
	return g.class.String()
}

// Tenant names the tenant the query ran under (empty for untagged queries).
func (g *Grant) Tenant() string {
	if g == nil {
		return ""
	}
	return g.tenant
}

// QueueWait is the virtual time the query spent queued before admission
// (zero when it was admitted immediately).
func (g *Grant) QueueWait() simclock.Time {
	if g == nil {
		return 0
	}
	return g.wait
}

// Queued reports whether the query actually waited in the queue. The
// pass-through (unlimited) path never queues, so instrumentation keyed on
// this stays silent when admission is disabled.
func (g *Grant) Queued() bool { return g != nil && g.queued }

// Admit blocks until the request is granted a slot, its class queue deadline
// sheds it, or ctx is cancelled. The returned error is nil with a Grant, or a
// typed *Rejection matching ErrAdmissionRejected (and ErrQueueTimeout plus
// simclock.ErrDeadline for deadline sheds), or ctx.Err().
func (c *Controller) Admit(ctx context.Context, req Request) (*Grant, error) {
	w, g, err := c.file(req, nil)
	if w == nil {
		return g, err
	}
	select {
	case err := <-w.ch:
		if err != nil {
			return nil, err
		}
		return w.grant(c), nil
	case <-ctx.Done():
		if c.abandon(w) {
			return nil, ctx.Err()
		}
		// The waiter was granted or shed concurrently with the cancellation;
		// honour that decision's bookkeeping before reporting the cancel.
		if err := <-w.ch; err != nil {
			return nil, err
		}
		c.release(w.class, w.tenant)
		return nil, ctx.Err()
	}
}

// Submit is Admit for a caller that drives the virtual clock itself and so
// must not block: it files the request and returns. done is called exactly
// once with what Admit would have returned, on the goroutine that decides it:
// inside Submit when the request is admitted or refused on arrival, otherwise
// inside the Release, SetPolicy or queue-deadline clock event that grants or
// sheds it. No controller lock is held during the call, so done may Release,
// Submit or schedule clock events.
func (c *Controller) Submit(req Request, done func(*Grant, error)) {
	if w, g, err := c.file(req, done); w == nil {
		done(g, err)
	}
}

// file decides a request on arrival — a Grant or a typed refusal, with a nil
// waiter — or leaves it queued and returns its waiter, whose decision later
// reaches done (nil: the waiter's channel, for Admit).
func (c *Controller) file(req Request, done func(*Grant, error)) (*waiter, *Grant, error) {
	k := classify(req)
	c.mu.Lock()
	t := &c.tallies[k]
	if c.unlimited && !c.tenanted {
		// Pass-through: one mutex hop, no clock interaction, no queue. This
		// is the admission-disabled path that must stay behaviourally
		// identical to an engine without a controller.
		c.running++
		t.running++
		t.admitted++
		c.mu.Unlock()
		return nil, &Grant{c: c, class: k, tenant: req.Tenant}, nil
	}
	var ts *tenantState
	if c.tenanted {
		// Tenanted: every request — tagged or not — runs under a tenant
		// state, so fair-queue selection sees uniform waiters.
		ts = c.tenantStateLocked(req.Tenant)
	}
	held := c.policy.held(k, req.CostMS)
	deadline := c.policy.config(k).QueueDeadline
	reason := ""
	switch {
	case held && deadline <= 0:
		// A hold with no deadline could never be shed or admitted: reject
		// immediately instead of parking the query forever.
		reason = ReasonCost
	case ts != nil && ts.cfg.MaxQueue > 0 && ts.queued >= ts.cfg.MaxQueue:
		reason = ReasonTenantQueueFull
	}
	if reason != "" {
		t.rejected++
		if ts != nil {
			ts.rejected++
		}
		c.mu.Unlock()
		c.tel.Active().Counter("admission.rejected", k.String()).Inc()
		if reason == ReasonTenantQueueFull {
			c.tel.Active().Counter("admission.tenant_rejected", req.Tenant).Inc()
		}
		return nil, nil, &Rejection{Class: k.String(), Tenant: req.Tenant, CostMS: req.CostMS, Reason: reason}
	}
	c.seq++
	w := &waiter{
		class:      k,
		tenant:     ts,
		tenantName: req.Tenant,
		cost:       req.CostMS,
		seq:        c.seq,
		held:       held,
		enqueuedAt: c.clock.Now(),
	}
	c.queue = append(c.queue, w)
	t.queued++
	if ts != nil {
		ts.queued++
	}
	c.drainLocked()
	if w.state == stateGranted {
		// Admitted synchronously: the queue pass was a formality, the query
		// never waited.
		c.mu.Unlock()
		return nil, w.grant(c), nil
	}
	w.queued = true
	if w.done = done; done == nil {
		w.ch = make(chan error, 1)
	}
	t.queuedTotal++
	if ts != nil {
		ts.queuedTotal++
	}
	if held {
		t.held++
	}
	if deadline > 0 {
		w.deadlineAt = w.enqueuedAt + deadline
		w.cancelDL = c.clock.ScheduleAt(w.deadlineAt, func(at simclock.Time) { c.expire(w, at) })
	}
	c.unlock()
	return w, nil, nil
}

// unlock ends a change of the controller's state: it releases mu, delivers
// every decision made under it — outside the lock, since a Submit callback
// re-enters the controller and the clock — and, when nothing is running and
// every queued query is held, advances virtual time to the earliest queue
// deadline: no release will ever drain such a queue, so only the sheds can.
func (c *Controller) unlock() {
	target, stalled := c.stallTargetLocked()
	c.publishGaugesLocked()
	decided := c.decided
	c.decided = nil
	c.mu.Unlock()
	for _, w := range decided {
		w.deliver(c)
	}
	if stalled {
		c.clock.AdvanceTo(target)
	}
}

// QueueDepth reports how many queries are currently waiting — the demand
// signal QCC folds into the II workload factor so routing sees pressure
// before execution does.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Running reports how many admitted queries hold slots right now.
func (c *Controller) Running() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.running
}

// Policy returns the current admission policy.
func (c *Controller) Policy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// SetPolicy replaces the admission policy at runtime. Queued waiters are
// re-resolved against the new class bounds: raised caps admit them, lifted
// holds release them, and a newly-imposed hold on a waiter with no queue
// deadline sheds it immediately (nothing could ever shed it later).
func (c *Controller) SetPolicy(p Policy) {
	c.mu.Lock()
	c.policy = p
	c.unlimited = p.Unlimited()
	var doomed []*waiter
	for _, w := range c.queue {
		w.held = p.held(w.class, w.cost)
		if w.held && w.deadlineAt <= 0 {
			doomed = append(doomed, w)
		}
	}
	for _, w := range doomed {
		w.state = stateShed
		c.removeLocked(w)
		t := &c.tallies[w.class]
		t.queued--
		t.shed++
		tenant := ""
		if ts := w.tenant; ts != nil {
			ts.queued--
			ts.shed++
			tenant = ts.cfg.Name
		}
		w.err = &Rejection{Class: w.class.String(), Tenant: tenant, CostMS: w.cost, Reason: ReasonCost}
		c.decided = append(c.decided, w)
	}
	c.drainLocked()
	c.unlock()
}

// release returns one slot and admits the best queued waiter.
func (c *Controller) release(k class, ts *tenantState) {
	c.mu.Lock()
	c.running--
	c.tallies[k].running--
	if ts != nil {
		ts.running--
	}
	c.releases++
	c.drainLocked()
	c.unlock()
}

// drainLocked admits queued waiters while capacity allows, interactive
// before batch; within a class, untenanted controllers drain FIFO, and
// tenanted ones pick the waiter with the smallest fair-queuing start tag
// (submission order breaks ties). Held waiters are skipped: they wait for a
// policy change or their deadline regardless of capacity.
func (c *Controller) drainLocked() {
	for {
		best := -1
		for i, w := range c.queue {
			if w.held || !c.admissibleLocked(w) {
				continue
			}
			if best < 0 || c.beatsLocked(w, c.queue[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		t := &c.tallies[w.class]
		t.queued--
		w.state = stateGranted
		if w.cancelDL != nil {
			w.cancelDL()
			w.cancelDL = nil
		}
		c.running++
		t.running++
		t.admitted++
		w.wait = c.clock.Now() - w.enqueuedAt
		if w.wait < 0 {
			w.wait = 0
		}
		t.waitTotal += w.wait
		if w.wait > 0 {
			c.tel.Active().Histogram("admission.queue_wait_ms", w.class.String(), nil).Observe(float64(w.wait))
		}
		if ts := w.tenant; ts != nil {
			ts.queued--
			ts.running++
			ts.admitted++
			ts.servedCost += w.cost
			ts.waitTotal += w.wait
			// Advance the tenant's fair-queuing tag: the grant starts at
			// max(tenant tag, class virtual time) and finishes cost/weight
			// later; the class virtual time follows the start tag, so idle
			// tenants never bank credit against backlogged ones.
			cost := w.cost
			if cost < minFairCost {
				cost = minFairCost
			}
			start := ts.tag[w.class]
			if vt := c.classVT[w.class]; vt > start {
				start = vt
			}
			c.classVT[w.class] = start
			ts.tag[w.class] = start + cost/ts.cfg.weight()
			if c.tenanted {
				c.tel.Active().Histogram("admission.tenant_served_cost_ms", ts.cfg.Name, nil).Observe(w.cost)
			}
		}
		if w.queued {
			c.decided = append(c.decided, w)
		}
	}
}

// beatsLocked orders waiters for admission: interactive before batch, then
// (when tenanted) smaller fair-queuing start tag, then submission order.
func (c *Controller) beatsLocked(a, b *waiter) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if c.tenanted {
		at, bt := c.startTagLocked(a), c.startTagLocked(b)
		if at != bt {
			return at < bt
		}
	}
	return a.seq < b.seq
}

// startTagLocked is a waiter's prospective fair-queuing start tag: its
// tenant's tag in the waiter's class, floored at the class virtual time so a
// tenant returning from idle competes from "now", not from the past.
func (c *Controller) startTagLocked(w *waiter) float64 {
	vt := c.classVT[w.class]
	if w.tenant == nil {
		return vt
	}
	if t := w.tenant.tag[w.class]; t > vt {
		return t
	}
	return vt
}

func (c *Controller) admissibleLocked(w *waiter) bool {
	if c.unlimited {
		// An unlimited policy admits everything, including waiters queued
		// under an earlier policy.
		return true
	}
	if c.policy.MaxConcurrent > 0 && c.running >= c.policy.MaxConcurrent {
		return false
	}
	limit := c.policy.config(w.class).MaxConcurrent
	return limit <= 0 || c.tallies[w.class].running < limit
}

// expire sheds a waiter whose virtual queue deadline has passed.
func (c *Controller) expire(w *waiter, at simclock.Time) {
	c.mu.Lock()
	if w.state != stateQueued {
		c.mu.Unlock()
		return
	}
	w.state = stateShed
	c.removeLocked(w)
	t := &c.tallies[w.class]
	t.queued--
	t.shed++
	tenant := ""
	if ts := w.tenant; ts != nil {
		ts.queued--
		ts.shed++
		tenant = ts.cfg.Name
	}
	c.tel.Active().Counter("admission.shed", w.class.String()).Inc()
	if w.tenant != nil && c.tenanted {
		c.tel.Active().Counter("admission.tenant_shed", tenant).Inc()
	}
	w.err = &Rejection{Class: w.class.String(), Tenant: tenant, CostMS: w.cost, Reason: ReasonQueueTimeout, Wait: at - w.enqueuedAt}
	c.decided = append(c.decided, w)
	// More held waiters with later deadlines may remain on an otherwise idle
	// machine; unlock keeps virtual time moving so their sheds fire too.
	c.unlock()
}

// abandon removes a waiter whose caller's context was cancelled. It reports
// false when the waiter was already granted or shed concurrently.
func (c *Controller) abandon(w *waiter) bool {
	c.mu.Lock()
	if w.state != stateQueued {
		c.mu.Unlock()
		return false
	}
	w.state = stateShed
	c.removeLocked(w)
	t := &c.tallies[w.class]
	t.queued--
	t.cancelled++
	if ts := w.tenant; ts != nil {
		ts.queued--
		ts.cancelled++
	}
	if w.cancelDL != nil {
		w.cancelDL()
		w.cancelDL = nil
	}
	c.publishGaugesLocked()
	c.mu.Unlock()
	return true
}

func (c *Controller) removeLocked(w *waiter) {
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// stallTargetLocked reports the virtual time the controller itself must
// advance the clock to when the machine is idle but queries remain queued
// (all of them held, by construction): the earliest queue deadline.
func (c *Controller) stallTargetLocked() (simclock.Time, bool) {
	if c.running > 0 || len(c.queue) == 0 {
		return 0, false
	}
	var min simclock.Time
	found := false
	for _, w := range c.queue {
		if w.deadlineAt <= 0 {
			continue
		}
		if !found || w.deadlineAt < min {
			min = w.deadlineAt
			found = true
		}
	}
	return min, found
}

// publishGaugesLocked refreshes the queue-depth and running gauges. A nil or
// disabled telemetry registry makes this a single atomic load.
func (c *Controller) publishGaugesLocked() {
	reg := c.tel.Active()
	if reg == nil {
		return
	}
	for k, t := range c.tallies {
		if t == (classTally{}) {
			continue // a class no query has reached yet
		}
		reg.Gauge("admission.queue_depth", class(k).String()).Set(float64(t.queued))
		reg.Gauge("admission.running", class(k).String()).Set(float64(t.running))
	}
	reg.Gauge("admission.queue_depth", "").Set(float64(len(c.queue)))
	reg.Gauge("admission.running", "").Set(float64(c.running))
	if c.tenanted {
		for name, ts := range c.tenants {
			reg.Gauge("admission.tenant_queue_depth", name).Set(float64(ts.queued))
			reg.Gauge("admission.tenant_running", name).Set(float64(ts.running))
		}
	}
}
