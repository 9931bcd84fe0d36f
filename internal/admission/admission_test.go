package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// newController builds a controller on a fresh clock.
func newController(p Policy) (*Controller, *simclock.Clock) {
	clk := simclock.New()
	return New(Config{Clock: clk, Policy: p}), clk
}

func TestDefaultPolicyIsUnlimited(t *testing.T) {
	if !(Policy{}).Unlimited() {
		t.Fatal("the zero policy must be unlimited (admission disabled)")
	}
	for _, p := range []Policy{
		{MaxConcurrent: 1},
		{Interactive: ClassConfig{MaxConcurrent: 1}},
		{Batch: ClassConfig{HoldCostMS: 1}},
	} {
		if p.Unlimited() {
			t.Fatalf("%+v reports unlimited", p)
		}
	}
	// A deadline alone constrains nothing: no query ever waits for it.
	if !(Policy{Batch: ClassConfig{QueueDeadline: 100}}).Unlimited() {
		t.Fatal("a policy with only a queue deadline must be unlimited")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want class
	}{
		{Request{CostMS: 5}, interactive},
		{Request{CostMS: InteractiveCeilingMS}, interactive}, // the ceiling is inclusive
		{Request{CostMS: InteractiveCeilingMS + 1}, batch},
		{Request{CostMS: 5, Class: ClassBatch}, batch},                                    // a tag wins over cost
		{Request{CostMS: InteractiveCeilingMS + 1, Class: ClassInteractive}, interactive}, // either way
		{Request{CostMS: 5, Class: "nope"}, interactive},                                  // an unknown tag falls back to cost
		{Request{CostMS: InteractiveCeilingMS + 1, Class: "nope"}, batch},
	} {
		if got := classify(tc.req); got != tc.want {
			t.Errorf("classify(%+v) = %s, want %s", tc.req, got, tc.want)
		}
	}
}

func TestUnlimitedPassThrough(t *testing.T) {
	c, clk := newController(Policy{})
	g, err := c.Admit(context.Background(), Request{Query: "q", CostMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if g.Queued() || g.QueueWait() != 0 {
		t.Fatalf("pass-through grant queued=%v wait=%v", g.Queued(), g.QueueWait())
	}
	if got := c.Running(); got != 1 {
		t.Fatalf("running = %d, want 1", got)
	}
	g.Release()
	g.Release() // idempotent
	if got := c.Running(); got != 0 {
		t.Fatalf("running after release = %d, want 0", got)
	}
	if clk.Now() != 0 {
		t.Fatalf("pass-through moved the clock to %v", clk.Now())
	}
	var nilGrant *Grant
	nilGrant.Release() // nil-safe
}

// admitAsync runs Admit on a goroutine and reports its outcome on a channel.
func admitAsync(c *Controller, req Request) chan struct {
	g   *Grant
	err error
} {
	ch := make(chan struct {
		g   *Grant
		err error
	}, 1)
	go func() {
		g, err := c.Admit(context.Background(), req)
		ch <- struct {
			g   *Grant
			err error
		}{g, err}
	}()
	return ch
}

func TestGlobalCapQueuesAndDrains(t *testing.T) {
	c, clk := newController(Policy{MaxConcurrent: 1})
	g1, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "b", CostMS: 10})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	// The running query charges 25 virtual ms, then releases.
	clk.Charge(25)
	g1.Release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.g.Queued() || out.g.QueueWait() != 25 {
		t.Fatalf("queued grant wait = %v (queued=%v), want 25ms", out.g.QueueWait(), out.g.Queued())
	}
	out.g.Release()
	st := c.Stats()
	if st.Releases != 2 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestPriorityOrdersQueue: a queued interactive query drains before a batch
// query that queued earlier.
func TestPriorityOrdersQueue(t *testing.T) {
	c, clk := newController(Policy{MaxConcurrent: 1})
	g, err := c.Admit(context.Background(), Request{Query: "seed", CostMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	var granted []*Grant
	classes := func() (out []string) {
		for _, g := range granted {
			out = append(out, g.Class())
		}
		return out
	}
	submit := func(query string, cost float64) {
		c.Submit(Request{Query: query, CostMS: cost}, func(g *Grant, err error) {
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			granted = append(granted, g)
		})
	}
	// The batch waiter arrives first, the interactive one second.
	submit("lo", 5000)
	submit("hi", 10)
	if len(granted) != 0 || c.QueueDepth() != 2 {
		t.Fatalf("%d granted, %d queued behind the seed, want 0 and 2", len(granted), c.QueueDepth())
	}
	clk.Charge(10)
	g.Release()
	// The interactive waiter must win the freed slot.
	if len(granted) != 1 || granted[0].Class() != ClassInteractive {
		t.Fatalf("grants %v after the seed's release, want [interactive]", classes())
	}
	if got := c.QueueDepth(); got != 1 {
		t.Fatalf("queue depth after hi admitted = %d, want 1 (lo still queued)", got)
	}
	granted[0].Release()
	if len(granted) != 2 || granted[1].Class() != ClassBatch {
		t.Fatalf("grants %v after the interactive release, want [interactive batch]", classes())
	}
	granted[1].Release()
}

func TestCostHoldShedsOnDeadline(t *testing.T) {
	c, clk := newController(Policy{Batch: ClassConfig{HoldCostMS: 1000, QueueDeadline: 500}})
	start := clk.Now()
	_, err := c.Admit(context.Background(), Request{Query: "heavy", CostMS: 2000})
	if err == nil {
		t.Fatal("held query must be shed, got grant")
	}
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, simclock.ErrDeadline) {
		t.Fatalf("shed error %v must match ErrAdmissionRejected, ErrQueueTimeout and simclock.ErrDeadline", err)
	}
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ReasonQueueTimeout || rej.Class != ClassBatch || rej.Wait != 500 {
		t.Fatalf("rejection = %+v", rej)
	}
	// The stall-advance must have moved virtual time to the deadline even
	// though nothing was running.
	if got := clk.Now() - start; got != 500 {
		t.Fatalf("clock advanced %v, want 500ms (stall-advance to queue deadline)", got)
	}
	st := c.Stats()
	if b := st.Classes[batch]; b.Name != ClassBatch || b.Held != 1 || b.Shed != 1 {
		t.Fatalf("batch stats = %+v, want Held=1 Shed=1", b)
	}
}

func TestHoldWithoutDeadlineRejectsImmediately(t *testing.T) {
	c, clk := newController(Policy{Interactive: ClassConfig{HoldCostMS: 100}})
	_, err := c.Admit(context.Background(), Request{Query: "heavy", CostMS: 200})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ReasonCost {
		t.Fatalf("err = %v, want immediate cost rejection", err)
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatal("cost rejection must match ErrAdmissionRejected")
	}
	if errors.Is(err, ErrQueueTimeout) {
		t.Fatal("cost rejection must not match ErrQueueTimeout")
	}
	if clk.Now() != 0 {
		t.Fatalf("immediate rejection moved the clock to %v", clk.Now())
	}
}

// TestSubmitDecidesOnTheDecidingCall: Submit never blocks. A request admitted
// or refused on arrival is decided inside Submit; a queued one inside the
// Release that frees a slot for it, with that instant's queue wait, and its
// callback may re-enter the controller (b releases at once, which grants c
// inside b's callback); a held one is shed by its queue-deadline event, which
// the stall-advance fires once nothing runs. Every request runs under one
// tenant whose queue bound refuses d.
func TestSubmitDecidesOnTheDecidingCall(t *testing.T) {
	c, clk := newController(Policy{MaxConcurrent: 1, Batch: ClassConfig{HoldCostMS: 100, QueueDeadline: 500}})
	c.RegisterTenant(Tenant{Name: "t", MaxQueue: 2})
	var log []string
	grants := map[string]*Grant{}
	submit := func(name, class string, cost float64, then func(*Grant)) {
		c.Submit(Request{Query: name, CostMS: cost, Class: class, Tenant: "t"}, func(g *Grant, err error) {
			if err != nil {
				log = append(log, fmt.Sprintf("%s shed %v at %v", name, errors.Is(err, ErrQueueTimeout), clk.Now()))
				return
			}
			log = append(log, fmt.Sprintf("%s granted queued=%v wait=%v", name, g.Queued(), g.QueueWait()))
			grants[name] = g
			if then != nil {
				then(g)
			}
		})
	}
	expect := func(step string, want ...string) {
		t.Helper()
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("after %s: decisions %q, want %q", step, log, want)
		}
		log = nil
	}

	submit("a", ClassInteractive, 10, nil)
	expect("submit a", "a granted queued=false wait=0.000ms")
	submit("b", ClassInteractive, 10, func(g *Grant) { g.Release() })
	submit("c", ClassInteractive, 10, nil)
	expect("submit b, c")
	var rej *Rejection
	c.Submit(Request{Query: "d", CostMS: 10, Tenant: "t"}, func(g *Grant, err error) {
		if !errors.As(err, &rej) || rej.Reason != ReasonTenantQueueFull {
			t.Fatalf("d: grant %v err %v, want a tenant-queue-full refusal", g, err)
		}
	})
	if rej == nil {
		t.Fatal("the tenant-queue-full refusal was not decided inside Submit")
	}

	clk.AdvanceTo(25)
	grants["a"].Release()
	expect("a's release", "b granted queued=true wait=25.000ms", "c granted queued=true wait=25.000ms")

	submit("e", ClassBatch, 200, nil)
	expect("submit e")
	grants["c"].Release()
	expect("c's release", "e shed true at 525.000ms")
	if c.Running() != 0 || c.QueueDepth() != 0 {
		t.Fatalf("running %d queued %d after the last decision", c.Running(), c.QueueDepth())
	}
}

// TestGrantOfAWaiterThatJoinedATenantReleasesIt: a request queued before the
// first tenant registers runs under the default tenant, and its grant's
// release must return that tenant's slot (the grant used to carry the tenant
// state of its admission time, none, and left the tenant running forever).
func TestGrantOfAWaiterThatJoinedATenantReleasesIt(t *testing.T) {
	c, _ := newController(Policy{MaxConcurrent: 1})
	var first, second *Grant
	c.Submit(Request{Query: "a", CostMS: 10}, func(g *Grant, _ error) { first = g })
	c.Submit(Request{Query: "b", CostMS: 10}, func(g *Grant, _ error) { second = g })
	c.RegisterTenant(Tenant{Name: "gold", Weight: 1})
	first.Release()
	if second == nil {
		t.Fatal("the queued request was not granted by the release")
	}
	second.Release()
	for _, ts := range c.TenantStats() {
		if ts.Running != 0 {
			t.Fatalf("tenant %q still runs %d after every grant was released", ts.Name, ts.Running)
		}
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	c, _ := newController(Policy{MaxConcurrent: 1})
	g, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Request{Query: "b", CostMS: 10})
		done <- err
	}()
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitUntil(t, func() bool { return c.QueueDepth() == 0 })
	// The abandoned slot must not leak: a new query still admits.
	g.Release()
	g2, err := c.Admit(context.Background(), Request{Query: "c", CostMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
	st := c.Stats()
	if st.Classes[0].Cancelled != 1 {
		t.Fatalf("stats = %+v, want Cancelled=1", st.Classes)
	}
}

func TestSetPolicyReclassifiesQueue(t *testing.T) {
	// Start with a hold that parks the query, then lift the hold at runtime:
	// the waiter must be admitted.
	p := Policy{Interactive: ClassConfig{HoldCostMS: 100, QueueDeadline: 10000}}
	c, _ := newController(p)
	// A running query keeps the machine busy so the held waiter is parked
	// rather than stall-advanced straight to its deadline.
	g, err := c.Admit(context.Background(), Request{Query: "cheap", CostMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "heavy", CostMS: 200})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	lifted := p
	lifted.Interactive.HoldCostMS = 0
	c.SetPolicy(lifted)
	out := <-done
	if out.err != nil {
		t.Fatalf("lifting the hold must admit the waiter: %v", out.err)
	}
	out.g.Release()
	g.Release()
}

func TestSetPolicyRaisedCapUnblocksWaiters(t *testing.T) {
	c, _ := newController(Policy{MaxConcurrent: 1})
	g, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "b", CostMS: 10})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	raised := c.Policy()
	raised.MaxConcurrent = 2
	c.SetPolicy(raised)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	out.g.Release()
	g.Release()
}

func TestTelemetryCounters(t *testing.T) {
	clk := simclock.New()
	tel := telemetry.New()
	tel.SetEnabled(true)
	p := Policy{Interactive: ClassConfig{HoldCostMS: 100, QueueDeadline: 50}}
	c := New(Config{Clock: clk, Telemetry: tel, Policy: p})
	_, err := c.Admit(context.Background(), Request{Query: "heavy", CostMS: 200})
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v", err)
	}
	if got := tel.Metrics().CounterValue("admission.shed", ClassInteractive); got != 1 {
		t.Fatalf("admission.shed = %d, want 1", got)
	}
	if v, ok := tel.Metrics().GaugeValue("admission.queue_depth", ""); !ok || v != 0 {
		t.Fatalf("admission.queue_depth = %v (ok=%v), want 0", v, ok)
	}
}

// TestAdmissionConcurrencySoak hammers the controller from many goroutines
// under -race: both classes, caps small enough to force queueing, deadlines
// short enough to shed some, and random releases via Charge.
func TestAdmissionConcurrencySoak(t *testing.T) {
	p := Policy{
		MaxConcurrent: 4,
		Interactive:   ClassConfig{MaxConcurrent: 3, QueueDeadline: 10000},
		Batch:         ClassConfig{MaxConcurrent: 2, QueueDeadline: 10000},
	}
	c, clk := newController(p)
	const workers = 32
	var wg sync.WaitGroup
	var admitted, rejected int64
	var mu sync.Mutex
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				cost := float64(100 + (i*31+j*17)%3000) // both sides of the interactive ceiling
				g, err := c.Admit(context.Background(), Request{Query: fmt.Sprintf("q%d-%d", i, j), CostMS: cost})
				mu.Lock()
				if err != nil {
					if !errors.Is(err, ErrAdmissionRejected) {
						mu.Unlock()
						panic(fmt.Sprintf("untyped admission error: %v", err))
					}
					rejected++
					mu.Unlock()
					continue
				}
				admitted++
				mu.Unlock()
				clk.Charge(simclock.Time(cost / 100))
				g.Release()
			}
		}(i)
	}
	wg.Wait()
	if admitted+rejected != workers*16 {
		t.Fatalf("lost queries: admitted %d + rejected %d != %d", admitted, rejected, workers*16)
	}
	st := c.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("controller not drained: %+v", st)
	}
	if st.Releases != admitted {
		t.Fatalf("releases %d != admitted %d", st.Releases, admitted)
	}
}

// waitUntil polls cond (the controller enqueues on a separate goroutine),
// yielding so the admitting goroutine can run.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never became true")
}
