// Multi-tenant integration tests at the federation surface: tenancy must be
// invisible until tenants are registered — a federation that had tenants
// registered and then deregistered must produce bit-identical results,
// charges, spans and virtual-clock state. Weighted-fair scheduling and quota
// sheds are covered end to end in multitenant_fairness_test.go.
package fedqcc_test

import (
	"fmt"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
)

// TestTenantDisabledIdentity mirrors TestAdmissionDisabledIdentity for the
// tenancy layer: a federation that had tenants registered and then
// deregistered must behave bit-identically to one that never saw a tenant —
// same rows, response times, routes, span trees and final virtual clock.
func TestTenantDisabledIdentity(t *testing.T) {
	sqls := soakStatements(16)

	run := func(configure func(*fedqcc.Federation)) ([]*fedqcc.QueryResult, []string, fedqcc.Time) {
		fed := soakFederation(t)
		fed.EnableTelemetry()
		configure(fed)
		results := make([]*fedqcc.QueryResult, len(sqls))
		trees := make([]string, len(sqls))
		for i, q := range sqls {
			res, err := fed.Query(q)
			if err != nil {
				t.Fatalf("query %d (%s): %v", i, q, err)
			}
			results[i] = res
			if tr := fed.Telemetry().Tracer().Last(); tr != nil {
				trees[i] = tr.Tree()
			}
		}
		return results, trees, fed.Now()
	}

	base, baseTrees, baseClock := run(func(*fedqcc.Federation) {})
	toggled, togTrees, togClock := run(func(fed *fedqcc.Federation) {
		// Register tenants with weights and a queue bound, then deregister them all:
		// removal must restore the exact tenant-unaware pass-through.
		adm := fed.Admission()
		adm.RegisterTenant(fedqcc.Tenant{Name: "gold", Weight: 3, MaxQueue: 1})
		adm.RegisterTenant(fedqcc.Tenant{Name: "bronze", Weight: 1})
		if got := len(adm.Tenants()); got != 2 {
			t.Fatalf("registered 2 tenants, listed %d", got)
		}
		for _, name := range []string{"gold", "bronze"} {
			if !adm.DeregisterTenant(name) {
				t.Fatalf("tenant %q was not registered at deregistration", name)
			}
		}
	})

	for i := range sqls {
		if diff := experiment.RelationsEquivalent(base[i].Rows, toggled[i].Rows, true); diff != "" {
			t.Errorf("query %d: rows differ after tenant deregistration: %s", i, diff)
		}
		if base[i].ResponseTime != toggled[i].ResponseTime {
			t.Errorf("query %d: response %v vs %v", i, base[i].ResponseTime, toggled[i].ResponseTime)
		}
		if base[i].QueueWait != 0 || toggled[i].QueueWait != 0 {
			t.Errorf("query %d: pass-through queue wait %v/%v, want 0", i, base[i].QueueWait, toggled[i].QueueWait)
		}
		if base[i].Tenant != "" || toggled[i].Tenant != "" {
			t.Errorf("query %d: untagged query carries tenant %q/%q", i, base[i].Tenant, toggled[i].Tenant)
		}
		if fmt.Sprint(base[i].Route) != fmt.Sprint(toggled[i].Route) {
			t.Errorf("query %d: route %v vs %v", i, base[i].Route, toggled[i].Route)
		}
		if baseTrees[i] != togTrees[i] {
			t.Errorf("query %d: span tree diverged after tenant deregistration:\n--- default ---\n%s--- toggled ---\n%s",
				i, baseTrees[i], togTrees[i])
		}
	}
	if baseClock != togClock {
		t.Errorf("final clock %v vs %v: tenant registration left a trace after removal", baseClock, togClock)
	}
}
