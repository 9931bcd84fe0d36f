// Multi-tenant fairness and quota tests at the federation surface (white-box:
// package fedqcc so a blocker grant can pin the admission slot directly).
// Holding a real grant keeps running > 0, which parks the tenant-tagged burst
// in the queue without cost holds or deadlines — the controller's
// stall-advance (which fast-forwards virtual time when nothing runs) never
// fires, so the drain order is purely the weighted-fair scheduler's.
package fedqcc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/workload"
)

// mtFederation builds the paper federation the tenant tests share.
func mtFederation(tb testing.TB) *Federation {
	tb.Helper()
	fed, err := NewPaperFederation(FederationOptions{Scale: 100, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return fed
}

// mtTestStatement returns one cheap query every burst below reuses: identical
// statements give identical calibrated costs, so weighted-fair grant counts
// mirror served-cost shares exactly.
func mtTestStatement(tb testing.TB) string {
	tb.Helper()
	qt4, err := workload.TypeByName("QT4")
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Instances(qt4, 1)[0]
}

// mtWaitQueueDepth blocks until the controller's queue holds want waiters.
func mtWaitQueueDepth(tb testing.TB, fed *Federation, want int) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for fed.adm.QueueDepth() < want {
		if time.Now().After(deadline) {
			tb.Fatalf("queue depth never reached %d (at %d)", want, fed.adm.QueueDepth())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// mtBlockerGrant occupies the federation's single admission slot so that
// every subsequent query parks in the queue until the grant is released.
func mtBlockerGrant(tb testing.TB, fed *Federation) *admission.Grant {
	tb.Helper()
	g, err := fed.adm.Admit(context.Background(), admission.Request{Query: "blocker", CostMS: 1})
	if err != nil {
		tb.Fatalf("blocker grant: %v", err)
	}
	return g
}

func mtTenantStat(tb testing.TB, fed *Federation, name string) TenantStats {
	tb.Helper()
	for _, ts := range fed.Admission().TenantStats() {
		if ts.Name == name {
			return ts
		}
	}
	tb.Fatalf("controller has no tenant %q", name)
	return TenantStats{}
}

func mtLogTenant(tb testing.TB, fed *Federation, name string) QueryLogTenantStats {
	tb.Helper()
	for _, ts := range fed.QueryLogStats().Tenants {
		if ts.Name == name {
			return ts
		}
	}
	tb.Fatalf("query log has no tenant %q", name)
	return QueryLogTenantStats{}
}

// TestTenantWeightedSharesFederation drives a 40-query two-tenant burst
// (gold weight 3, bronze weight 1, identical statements) through a
// single-slot federation: the burst parks behind a blocker grant, then drains
// one at a time in weighted-fair order. Gold must take roughly three of every
// four early grants, and bronze must accumulate the larger queue wait.
func TestTenantWeightedSharesFederation(t *testing.T) {
	fed := mtFederation(t)
	adm := fed.Admission()
	adm.RegisterTenant(Tenant{Name: "gold", Weight: 3})
	adm.RegisterTenant(Tenant{Name: "bronze", Weight: 1})
	adm.SetPolicy(AdmissionPolicy{MaxConcurrent: 1})

	sql := mtTestStatement(t)
	if _, err := fed.Query(sql); err != nil { // warm the plan cache before parking the slot
		t.Fatal(err)
	}

	blocker := mtBlockerGrant(t, fed)
	const perTenant = 20
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		order []string
	)
	for i := 0; i < 2*perTenant; i++ {
		tenant := "gold"
		if i%2 == 1 {
			tenant = "bronze"
		}
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			res, err := fed.QueryContext(WithQueryTenant(context.Background(), tenant), sql)
			if err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
				return
			}
			if res.Tenant != tenant {
				t.Errorf("result attributed to %q, want %q", res.Tenant, tenant)
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}(tenant)
	}
	mtWaitQueueDepth(t, fed, 2*perTenant)
	blocker.Release()
	wg.Wait()

	if len(order) != 2*perTenant {
		t.Fatalf("%d of %d queries completed", len(order), 2*perTenant)
	}
	goldEarly := 0
	for _, tenant := range order[:perTenant] {
		if tenant == "gold" {
			goldEarly++
		}
	}
	// Ideal 3:1 interleave gives 15 gold in the first 20 completions; allow
	// slack for goroutine wakeup skew between grant and completion append.
	if goldEarly < 12 || goldEarly > 18 {
		t.Errorf("gold took %d of the first %d completions, want ~15 (3:1 weights): order %v",
			goldEarly, perTenant, order[:perTenant])
	}

	gold, bronze := mtTenantStat(t, fed, "gold"), mtTenantStat(t, fed, "bronze")
	for _, ts := range []TenantStats{gold, bronze} {
		if ts.Admitted != perTenant || ts.Shed != 0 || ts.Rejected != 0 {
			t.Errorf("tenant %s: admitted %d shed %d rejected %d, want %d/0/0",
				ts.Name, ts.Admitted, ts.Shed, ts.Rejected, perTenant)
		}
	}
	if bronze.TotalQueueWait <= gold.TotalQueueWait {
		t.Errorf("bronze queue wait %v not above gold's %v despite 1:3 weight",
			bronze.TotalQueueWait, gold.TotalQueueWait)
	}
	for _, name := range []string{"gold", "bronze"} {
		lt := mtLogTenant(t, fed, name)
		if lt.Completed != perTenant || lt.Shed != 0 {
			t.Errorf("query log tenant %s: completed %d shed %d, want %d/0", name, lt.Completed, lt.Shed, perTenant)
		}
		if lt.ServedCostMS <= 0 {
			t.Errorf("query log tenant %s: served cost %v, want > 0", name, lt.ServedCostMS)
		}
	}
}

// TestTenantQuotaShedFederation pins the single admission slot, fills tenant
// "limited"'s one-deep queue, and asserts the next limited query is refused
// synchronously with the tenant-quota error chain — while an unconstrained
// tenant still queues freely and both parked queries complete once the slot
// frees.
func TestTenantQuotaShedFederation(t *testing.T) {
	fed := mtFederation(t)
	adm := fed.Admission()
	adm.RegisterTenant(Tenant{Name: "limited", Weight: 1, MaxQueue: 1})
	adm.RegisterTenant(Tenant{Name: "free", Weight: 1})
	adm.SetPolicy(AdmissionPolicy{MaxConcurrent: 1})

	sql := mtTestStatement(t)
	if _, err := fed.Query(sql); err != nil {
		t.Fatal(err)
	}

	blocker := mtBlockerGrant(t, fed)
	launch := func(tenant string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := fed.QueryContext(WithQueryTenant(context.Background(), tenant), sql)
			done <- err
		}()
		return done
	}
	first := launch("limited")
	mtWaitQueueDepth(t, fed, 1)

	// The limited tenant's queue bound is full: the second query must bounce
	// immediately with the quota chain, not a deadline shed.
	_, err := fed.QueryContext(WithQueryTenant(context.Background(), "limited"), sql)
	if err == nil {
		t.Fatal("second limited query admitted past MaxQueue 1")
	}
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, ErrTenantQuota) {
		t.Errorf("quota refusal %v does not match ErrAdmissionRejected+ErrTenantQuota", err)
	}
	if errors.Is(err, ErrQueueTimeout) {
		t.Errorf("immediate queue-full refusal %v must not match ErrQueueTimeout", err)
	}
	var rej *AdmissionRejection
	if !errors.As(err, &rej) {
		t.Fatalf("refusal %v carries no *AdmissionRejection", err)
	}
	if rej.Tenant != "limited" || rej.Reason != admission.ReasonTenantQueueFull {
		t.Errorf("rejection tenant %q reason %q, want limited/%s", rej.Tenant, rej.Reason, admission.ReasonTenantQueueFull)
	}

	// An unconstrained tenant is unaffected by the neighbour's quota.
	second := launch("free")
	mtWaitQueueDepth(t, fed, 2)

	blocker.Release()
	for name, done := range map[string]chan error{"limited": first, "free": second} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("parked %s query: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("parked %s query never completed after release", name)
		}
	}

	limited := mtTenantStat(t, fed, "limited")
	if limited.Admitted != 1 || limited.Rejected != 1 {
		t.Errorf("limited tenant admitted %d rejected %d, want 1/1", limited.Admitted, limited.Rejected)
	}
	free := mtTenantStat(t, fed, "free")
	if free.Admitted != 1 || free.Rejected != 0 {
		t.Errorf("free tenant admitted %d rejected %d, want 1/0", free.Admitted, free.Rejected)
	}
	lt := mtLogTenant(t, fed, "limited")
	if lt.Completed != 1 || lt.Shed != 1 {
		t.Errorf("query log tenant limited: completed %d shed %d, want 1/1", lt.Completed, lt.Shed)
	}
	if lf := mtLogTenant(t, fed, "free"); lf.Completed != 1 || lf.Shed != 0 {
		t.Errorf("query log tenant free: completed %d shed %d, want 1/0", lf.Completed, lf.Shed)
	}
}
