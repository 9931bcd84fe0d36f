// Weighted replica routing: the single-placement identity discipline, the
// latency-only ≡ cost-based property, and replica failover under fencing.
package fedqcc_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	fedqcc "repro"
)

// normSpanTree makes a rendered span tree comparable across runs: sibling
// fragments dispatch on concurrent goroutines, so their registration order
// (and hence the tree-drawing glyphs) is scheduler-dependent even when every
// span's timing is identical. Stripping the connectors and sorting the lines
// compares the multiset of spans with their exact virtual timings.
func normSpanTree(tree string) string {
	lines := strings.Split(tree, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimLeft(l, " \t│├└─")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// queryFingerprint captures everything a query observably did: rows, route,
// charges and the span tree (when telemetry is on).
func queryFingerprint(t *testing.T, fed *fedqcc.Federation, sql string) string {
	t.Helper()
	res, err := fed.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	tree := ""
	if tr := fed.Telemetry().Tracer().Last(); tr != nil {
		tree = normSpanTree(tr.Tree())
	}
	return fmt.Sprintf("rows=%v route=%v resp=%v first=%v merge=%v frag=%v clock=%v\n%s",
		res.Rows.Rows, res.Route, float64(res.ResponseTime), float64(res.FirstRowTime),
		float64(res.MergeTime), res.FragmentTimes, fed.Now(), tree)
}

// identityWorkload mixes single-table scans and cross-server joins over the
// split schema (orders+customer on A, lineitem+parts on B).
var identityWorkload = []string{
	"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100",
	"SELECT SUM(l.l_price) FROM lineitem AS l WHERE l.l_qty < 25",
	"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 5",
	"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01",
	"SELECT COUNT(*) FROM parts AS p WHERE p.p_weight > 25",
	"SELECT SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000",
}

// buildSinglePlacementFed builds a federation where every nickname lives on
// exactly one server — the configuration the identity guarantee covers.
func buildSinglePlacementFed(t *testing.T) *fedqcc.Federation {
	t.Helper()
	schema := fedqcc.StandardSchema(100)
	fed, err := fedqcc.NewBuilder(7).
		AddServer("A", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddServer("B", fedqcc.ProfilePowerful, fedqcc.LinkSpec{}).
		AddGeneratedTable("A", schema[0]). // orders
		AddGeneratedTable("B", schema[1]). // lineitem
		AddGeneratedTable("A", schema[2]). // customer
		AddGeneratedTable("B", schema[3]). // parts
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestWeightedSinglePlacementIdentity is the identity discipline: with a
// single placement per fragment, enabling the weighted router must leave the
// engine bit-identical — same rows, routes, charges, span trees and virtual
// clock as plain QCC.
func TestWeightedSinglePlacementIdentity(t *testing.T) {
	run := func(weighted bool) []string {
		fed := buildSinglePlacementFed(t)
		fed.EnableTelemetry()
		cal := fed.EnableQCC(fedqcc.QCCOptions{})
		var wr *fedqcc.WeightedRouting
		if weighted {
			wr = cal.EnableWeightedRouting(fedqcc.WeightedRoutingOptions{})
		}
		var got []string
		for _, sql := range identityWorkload {
			got = append(got, queryFingerprint(t, fed, sql))
		}
		if weighted {
			if switched, _ := wr.Rerouted(); switched != 0 {
				t.Errorf("weighted router switched %d single-placement fragments", switched)
			}
		}
		return got
	}
	plain := run(false)
	routed := run(true)
	for i := range plain {
		if plain[i] != routed[i] {
			t.Errorf("query %d diverged with weighted routing on a single-placement federation:\n--- plain ---\n%s\n--- weighted ---\n%s",
				i, plain[i], routed[i])
		}
	}
}

// TestWeightedLatencyOnlyMatchesCostWinner is the property test: with every
// weight zeroed except calibrated latency, the weighted router's decisions
// must match the pure cost-based winner (the route QCC picks with no load
// balancing installed).
func TestWeightedLatencyOnlyMatchesCostWinner(t *testing.T) {
	build := func(weighted bool) (*fedqcc.Federation, *fedqcc.Calibrator) {
		fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
		if weighted {
			cal.EnableWeightedRouting(fedqcc.WeightedRoutingOptions{
				LatencyWeight:          1,
				DisableDispatchRescore: true,
			})
		}
		return fed, cal
	}
	costFed, costCal := build(false)
	wFed, wCal := build(true)
	queries := []string{
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100",
		"SELECT SUM(l.l_price) FROM lineitem AS l WHERE l.l_qty < 25",
		"SELECT COUNT(*) FROM customer AS c WHERE c.c_discount > 0.05",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 5",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01",
	}
	for round := 0; round < 3; round++ {
		for _, sql := range queries {
			want, err := costFed.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wFed.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(want.Route) != fmt.Sprint(got.Route) {
				t.Fatalf("round %d %q: latency-only weighted route %v != cost-based route %v",
					round, sql, got.Route, want.Route)
			}
			costCal.PublishNow()
			wCal.PublishNow()
		}
	}
}

// TestWeightedReplicaFailover fences a server mid-workload and asserts
// queries keep succeeding on the surviving replicas with identical rows and
// no typed engine errors leaking to the caller.
func TestWeightedReplicaFailover(t *testing.T) {
	fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	cal.EnableWeightedRouting(fedqcc.WeightedRoutingOptions{})

	const sql = "SELECT SUM(h.h_val) FROM hot1 AS h WHERE h.h_val > 1000"
	var wantRows string
	var pinned string
	for i := 0; i < 6; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatalf("warmup query %d: %v", i, err)
		}
		rows := fmt.Sprint(res.Rows.Rows)
		if wantRows == "" {
			wantRows = rows
		} else if rows != wantRows {
			t.Fatalf("warmup query %d rows %s != %s", i, rows, wantRows)
		}
		for _, srv := range res.Route {
			pinned = srv
		}
		cal.PublishNow()
	}

	h, err := fed.Server(pinned)
	if err != nil {
		t.Fatal(err)
	}
	h.SetDown(true)

	// Before any probe has fenced the server, the integrator's retry path
	// must already absorb the failure.
	res, err := fed.Query(sql)
	if err != nil {
		t.Fatalf("query with %s down (unfenced): %v", pinned, err)
	}
	if rows := fmt.Sprint(res.Rows.Rows); rows != wantRows {
		t.Fatalf("rows after failure %s != %s", rows, wantRows)
	}

	// After a probe fences it, routing must avoid the server outright.
	cal.ProbeNow()
	if !cal.IsFenced(pinned) {
		t.Fatalf("probe did not fence the downed server %s", pinned)
	}
	for i := 0; i < 6; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatalf("post-fence query %d: %v", i, err)
		}
		if rows := fmt.Sprint(res.Rows.Rows); rows != wantRows {
			t.Fatalf("post-fence query %d rows %s != %s", i, rows, wantRows)
		}
		for frag, srv := range res.Route {
			if srv == pinned {
				t.Fatalf("post-fence query %d routed fragment %s to fenced server %s", i, frag, pinned)
			}
		}
		if res.Retried != 0 {
			t.Errorf("post-fence query %d needed %d retries; fencing should route around the dead replica", i, res.Retried)
		}
		cal.PublishNow()
	}

	// Recovery: bring the server back; after a probe it may serve again.
	h.SetDown(false)
	cal.ProbeNow()
	if cal.IsFenced(pinned) {
		t.Fatalf("probe did not unfence the recovered server %s", pinned)
	}
	if _, err := fed.Query(sql); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestRouteDecisionsLogged checks the shared decision log every policy
// writes into: round-robin records rotations, the weighted router records
// replica choices with a score breakdown, and each dispatched fragment
// records its data-shipping mode under the "ship" policy.
func TestRouteDecisionsLogged(t *testing.T) {
	fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	fed.SetColumnarWire(false) // the row protocol's ship mode is what this test reads back
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal})
	const sql = "SELECT SUM(h.h_val) FROM hot2 AS h WHERE h.h_val > 1000"
	for i := 0; i < 3; i++ {
		if _, err := fed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	byPolicy := func(ds []fedqcc.RouteDecision, policy string) []fedqcc.RouteDecision {
		var out []fedqcc.RouteDecision
		for _, d := range ds {
			if d.Policy == policy {
				out = append(out, d)
			}
		}
		return out
	}
	all := fed.RouteDecisions(0)
	if len(byPolicy(all, "lb")) == 0 {
		t.Fatal("round-robin load balancer recorded no decisions")
	}
	ships := byPolicy(all, "ship")
	if len(ships) == 0 {
		t.Fatal("fragment dispatches recorded no ship decisions")
	}
	for _, d := range ships {
		if d.Reason != "row-ship" {
			t.Errorf("ship mode = %q on the row protocol, want row-ship (%+v)", d.Reason, d)
		}
	}

	cal.EnableWeightedRouting(fedqcc.WeightedRoutingOptions{})
	for i := 0; i < 3; i++ {
		if _, err := fed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	weighted := byPolicy(fed.RouteDecisions(0), "weighted")
	if len(weighted) < 3 {
		t.Fatalf("weighted router recorded %d decisions, want >= 3", len(weighted))
	}
	for _, d := range weighted[len(weighted)-3:] {
		if d.Reason == "" || d.Route == "" {
			t.Errorf("decision missing reason/route: %+v", d)
		}
	}
}
