package admission

import (
	"context"
	"errors"
	"fmt"
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

func TestTenantQuotaBlocksUnderUnlimitedPolicy(t *testing.T) {
	c, clk := newController(Policy{})
	c.RegisterTenant(Tenant{Name: "acme", MaxConcurrent: 2})
	g1, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Admit(context.Background(), Request{Query: "b", CostMS: 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	// Third query queues on the tenant quota even though the policy itself
	// is unlimited; another tenant sails straight through.
	done := admitAsync(c, Request{Query: "c", CostMS: 10, Tenant: "acme"})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	other, err := c.Admit(context.Background(), Request{Query: "d", CostMS: 10, Tenant: "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	other.Release()
	clk.Charge(7)
	g1.Release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.g.Queued() || out.g.QueueWait() != 7 {
		t.Fatalf("quota-blocked grant wait = %v (queued=%v), want 7", out.g.QueueWait(), out.g.Queued())
	}
	out.g.Release()
	g2.Release()
}

func TestTenantQueueFullRejectsTyped(t *testing.T) {
	c, _ := newController(Policy{})
	c.RegisterTenant(Tenant{Name: "acme", MaxConcurrent: 1, MaxQueue: 1})
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

// TestTenantShedUnwrapChains pins the satellite-2 error taxonomy: a deadline
// shed caused by the tenant's own quota is distinguishable from a class-queue
// deadline shed, and both stay errors.Is-matchable against every applicable
// sentinel.
func TestTenantShedUnwrapChains(t *testing.T) {
	// Class-congestion shed: global cap 1, no tenant quota involved.
	p := Policy{MaxConcurrent: 1, Classes: []ClassConfig{{Name: "only", QueueDeadline: 100}}}
	c, clk := newController(p)
	c.RegisterTenant(Tenant{Name: "acme"})
	g, err := c.Admit(context.Background(), Request{Query: "a", CostMS: 10, Tenant: "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	done := admitAsync(c, Request{Query: "b", CostMS: 10, Tenant: "acme"})
	waitUntil(t, func() bool { return c.QueueDepth() == 1 })
	clk.Charge(150) // the running query outlives b's queue deadline
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
	g.Release()

	// Tenant-quota shed: unlimited capacity, but acme's own quota holds its
	// second query in the queue past the deadline.
	p2 := Policy{Classes: []ClassConfig{{Name: "only", QueueDeadline: 100}}}
	c2, clk2 := newController(p2)
	c2.RegisterTenant(Tenant{Name: "acme", MaxConcurrent: 1})
	g2, err := c2.Admit(context.Background(), Request{Query: "a", CostMS: 10, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	done2 := admitAsync(c2, Request{Query: "b", CostMS: 10, Tenant: "acme"})
	waitUntil(t, func() bool { return c2.QueueDepth() == 1 })
	clk2.Charge(150)
	out2 := <-done2
	if out2.err == nil {
		t.Fatal("want tenant-quota shed, got grant")
	}
	if !errors.As(out2.err, &rej) || rej.Reason != ReasonTenantQuotaTimeout || rej.Tenant != "acme" {
		t.Fatalf("rejection = %+v, want tenant_quota_timeout for acme", rej)
	}
	for _, sentinel := range []error{ErrAdmissionRejected, ErrQueueTimeout, ErrTenantQuota, simclock.ErrDeadline} {
		if !errors.Is(out2.err, sentinel) {
			t.Fatalf("tenant-quota shed %v must match %v", out2.err, sentinel)
		}
	}
	g2.Release()
	stats := c2.TenantStats()
	if len(stats) == 0 || stats[0].Name != "acme" || stats[0].Shed != 1 {
		t.Fatalf("tenant stats = %+v, want acme Shed=1", stats)
	}
}

func TestTenantClassOverrides(t *testing.T) {
	c, _ := newController(Policy{})
	// For acme, anything over 10ms is batch; everyone else keeps the 1000ms
	// default interactive ceiling.
	c.RegisterTenant(Tenant{Name: "acme", Classes: []ClassConfig{
		{Name: ClassInteractive, Priority: 10, CeilingMS: 10},
	}})
	g, err := c.Admit(context.Background(), Request{Query: "q", CostMS: 50, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Class() != ClassBatch {
		t.Fatalf("acme 50ms query classified %q, want batch under override", g.Class())
	}
	g.Release()
	g, err = c.Admit(context.Background(), Request{Query: "q", CostMS: 50, Tenant: "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Class() != ClassInteractive {
		t.Fatalf("zeta 50ms query classified %q, want interactive", g.Class())
	}
	g.Release()
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
