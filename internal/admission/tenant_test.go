package admission

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/simclock"
)

func TestTenantRegistry(t *testing.T) {
	c, clk := newController(Policy{})
	// Before any registration the controller is a pure pass-through.
	g, err := c.Admit(context.Background(), Request{Query: "q", CostMS: 5, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Queued() || g.Tenant() != "acme" {
		t.Fatalf("pass-through grant queued=%v tenant=%q", g.Queued(), g.Tenant())
	}
	g.Release()
	if clk.Now() != 0 {
		t.Fatalf("pass-through moved the clock to %v", clk.Now())
	}
	if got := len(c.TenantStats()); got != 0 {
		t.Fatalf("untenanted controller reports %d tenant stats, want 0", got)
	}

	c.RegisterTenant(Tenant{Name: "acme", Weight: 3})
	c.RegisterTenant(Tenant{Name: "zeta"})
	ts := c.Tenants()
	if len(ts) != 2 || ts[0].Name != "acme" || ts[1].Name != "zeta" {
		t.Fatalf("Tenants() = %+v, want acme,zeta", ts)
	}

	// Tagged and untagged queries both admit; untagged run under the blank
	// default tenant; unknown tags auto-create unregistered states.
	for _, tenant := range []string{"acme", "", "ghost"} {
		g, err := c.Admit(context.Background(), Request{Query: "q", CostMS: 5, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if g.Tenant() != tenant {
			t.Fatalf("grant tenant = %q, want %q", g.Tenant(), tenant)
		}
		g.Release()
	}
	stats := c.TenantStats()
	byName := map[string]TenantStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if s := byName["acme"]; !s.Registered || s.Weight != 3 || s.Admitted != 1 || s.ServedCostMS != 5 {
		t.Fatalf("acme stats = %+v", s)
	}
	if s := byName["ghost"]; s.Registered || s.Weight != 1 {
		t.Fatalf("ghost stats = %+v, want unregistered weight-1 auto tenant", s)
	}
	if s, ok := byName[""]; !ok || s.Admitted != 1 {
		t.Fatalf("default tenant stats = %+v", s)
	}

	// Deregistering the last registered tenant restores the pass-through.
	if !c.DeregisterTenant("acme") || !c.DeregisterTenant("zeta") {
		t.Fatal("deregister of registered tenants must report true")
	}
	if c.DeregisterTenant("ghost") {
		t.Fatal("deregister of an auto tenant must report false")
	}
	g, err = c.Admit(context.Background(), Request{Query: "q", CostMS: 5, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	if clk.Now() != 0 {
		t.Fatalf("post-deregistration admit moved the clock to %v", clk.Now())
	}
}

func TestTenantQueueFullRejectsTyped(t *testing.T) {
	c, _ := newController(Policy{MaxConcurrent: 1})
	c.RegisterTenant(Tenant{Name: "acme", MaxQueue: 1})
	g, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "b", CostMS: 10, Tenant: "acme"})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	_, err = c.Admit(context.Background(), Request{Query: "c", CostMS: 10, Tenant: "acme"})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ReasonTenantQueueFull || rej.Tenant != "acme" {
		t.Fatalf("err = %v, want tenant-queue-full rejection for acme", err)
	}
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, ErrTenantQuota) {
		t.Fatal("tenant-queue-full must match ErrAdmissionRejected and ErrTenantQuota")
	}
	if errors.Is(err, ErrQueueTimeout) || errors.Is(err, simclock.ErrDeadline) {
		t.Fatal("tenant-queue-full must not match deadline sentinels")
	}
	g.Release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	out.g.Release()
}

// TestTenantShedUnwrapChains pins the error taxonomy under tenancy: a
// deadline shed and a hopeless cost hold each carry their tenant and stay
// errors.Is-matchable against exactly their sentinels (the tenant queue-bound
// refusal's chain is TestTenantQueueFullRejectsTyped's).
func TestTenantShedUnwrapChains(t *testing.T) {
	// Class-congestion shed: global cap 1, the running query outlives the
	// queued one's deadline.
	p := Policy{MaxConcurrent: 1, Interactive: ClassConfig{QueueDeadline: 100}, Batch: ClassConfig{HoldCostMS: 2000}}
	c, clk := newController(p)
	c.RegisterTenant(Tenant{Name: "acme"})
	g, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10, Tenant: "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "b", CostMS: 10, Tenant: "acme"})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	clk.Charge(150)
	out := <-done
	if out.err == nil {
		t.Fatal("want deadline shed, got grant")
	}
	var rej *Rejection
	if !errors.As(out.err, &rej) || rej.Reason != ReasonQueueTimeout || rej.Tenant != "acme" {
		t.Fatalf("rejection = %+v, want class queue_timeout for acme", rej)
	}
	for _, sentinel := range []error{ErrAdmissionRejected, ErrQueueTimeout, simclock.ErrDeadline} {
		if !errors.Is(out.err, sentinel) {
			t.Fatalf("class shed %v must match %v", out.err, sentinel)
		}
	}
	if errors.Is(out.err, ErrTenantQuota) {
		t.Fatal("class-congestion shed must not match ErrTenantQuota")
	}

	// Cost hold with no batch deadline: refused on arrival, whatever the
	// tenant, matching only the umbrella sentinel.
	_, err = c.Admit(context.Background(), Request{Query: "c", CostMS: 5000, Tenant: "acme"})
	if !errors.As(err, &rej) || rej.Reason != ReasonCost || rej.Tenant != "acme" || rej.Class != ClassBatch {
		t.Fatalf("err = %v, want a batch cost_hold refusal for acme", err)
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("cost refusal %v must match ErrAdmissionRejected", err)
	}
	for _, sentinel := range []error{ErrQueueTimeout, ErrTenantQuota, simclock.ErrDeadline} {
		if errors.Is(err, sentinel) {
			t.Fatalf("cost refusal %v must not match %v", err, sentinel)
		}
	}
	g.Release()
	stats := c.TenantStats()
	if i := slices.IndexFunc(stats, func(ts TenantStats) bool { return ts.Name == "acme" }); i < 0 || stats[i].Shed != 1 || stats[i].Rejected != 1 {
		t.Fatalf("tenant stats = %+v, want acme Shed=1 Rejected=1", stats)
	}
}

// TestTenantWeightedFairShares drives a saturated single-slot machine with
// two backlogged tenants weighted 3:1 and checks the served-cost split tracks
// the weights while both stay backlogged.
func TestTenantWeightedFairShares(t *testing.T) {
	const perTenant = 40
	p := Policy{MaxConcurrent: 1}
	c, clk := newController(p)
	c.RegisterTenant(Tenant{Name: "gold", Weight: 3})
	c.RegisterTenant(Tenant{Name: "bronze", Weight: 1})

	// Hold the only slot while both tenants build their backlogs, so the
	// fair scheduler sees both queues full from the first grant.
	blocker, err := c.Admit(context.Background(), Request{Query: "blocker", CostMS: 10, Tenant: "gold"})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for _, tenant := range []string{"gold", "bronze"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				g, err := c.Admit(context.Background(), Request{Query: "q", CostMS: 10, Tenant: tenant})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				clk.Charge(10)
				g.Release()
			}(tenant)
		}
	}
	waitUntil(t, func() bool { return c.QueueDepth() == 2*perTenant })
	clk.Charge(10)
	blocker.Release()
	wg.Wait()

	// While both tenants are backlogged — certainly the first perTenant
	// grants — the 3:1 weights must yield a ~3:1 service split.
	gold := 0
	for _, tenant := range order[:perTenant] {
		if tenant == "gold" {
			gold++
		}
	}
	want := perTenant * 3 / 4 // 30 of 40
	if gold < want-want/5 || gold > want+want/5 {
		t.Fatalf("gold served %d of first %d grants, want %d +/-20%%", gold, perTenant, want)
	}
	if c.QueueDepth() != 0 || c.Running() != 0 {
		t.Fatalf("end state queue=%d running=%d, want empty", c.QueueDepth(), c.Running())
	}
	stats := c.TenantStats()
	if stats[0].Name != "gold" || stats[0].ServedCostMS != (perTenant+1)*10 {
		t.Fatalf("tenant stats[0] = %+v, want gold with full served cost", stats[0])
	}
}

// TestUnregisteredTenantStatesAreBounded submits 10 000 queries under
// distinct unregistered tags beside one registered tenant. The auto states
// kept stay within maxAutoTenants plus the tenants with work in the
// controller, every query is decided, and the evictions are counted.
func TestUnregisteredTenantStatesAreBounded(t *testing.T) {
	c, _ := newController(Policy{MaxConcurrent: 4})
	c.RegisterTenant(Tenant{Name: "registered", Weight: 2})
	const n = 10000
	var grants []*Grant
	decided := 0
	onDecision := func(g *Grant, err error) {
		decided++
		if err != nil {
			t.Fatalf("query refused: %v", err)
		}
		grants = append(grants, g)
	}
	for i := 0; i < n; i++ {
		tenant := fmt.Sprintf("tag%d", i)
		if i%100 == 0 {
			tenant = "registered"
		}
		c.Submit(Request{Query: "q", CostMS: 10, Tenant: tenant}, onDecision)
		if len(grants) == 4 { // the next arrival queues behind the four running
			g := grants[0]
			grants = grants[1:]
			g.Release()
		}
		autos, busy := 0, 0
		for _, ts := range c.TenantStats() {
			if !ts.Registered {
				autos++
			}
			if ts.Running+ts.Queued > 0 {
				busy++
			}
		}
		if autos > maxAutoTenants+busy {
			t.Fatalf("after %d queries: %d unregistered states kept, bound %d + %d with work", i+1, autos, maxAutoTenants, busy)
		}
	}
	for len(grants) > 0 {
		g := grants[0]
		grants = grants[1:]
		g.Release()
	}
	if decided != n {
		t.Fatalf("%d of %d queries decided", decided, n)
	}
	if got := c.Stats().TenantsEvicted; got < n-n/100-maxAutoTenants {
		t.Fatalf("%d evictions counted, want at least %d", got, n-n/100-maxAutoTenants)
	}
	registered := false
	for _, ts := range c.TenantStats() {
		registered = registered || ts.Name == "registered" && ts.Registered && ts.Admitted == n/100
	}
	if !registered {
		t.Fatalf("the registered tenant lost its state: %+v", c.TenantStats())
	}
}
