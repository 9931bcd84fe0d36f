// The route policy end to end: the single-placement identity discipline, the
// latency-only ≡ cost-based property, replica failover under fencing for
// every mode, pinned route sequences, reproducible rotation order and policy
// replacement.
package fedqcc_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/telemetry"
	"repro/internal/workload"
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
		if weighted {
			cal.SetRouting(fedqcc.LBWeighted, 0, true)
		}
		var got []string
		for _, sql := range identityWorkload {
			got = append(got, queryFingerprint(t, fed, sql))
		}
		if switched := cal.RoutingStats().RescoreSwitches; switched != 0 {
			t.Errorf("the router switched %d single-placement fragments", switched)
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

// TestLatencyOnlyRescoreKeepsTheCostWinner: the paper modes score replicas
// by calibrated latency alone, so with the dispatch rescore on and no
// rotation, every fragment re-check must agree with the pure cost-based
// winner (the route QCC picks with no load balancing installed): the same
// routes, and no fragment moved.
func TestLatencyOnlyRescoreKeepsTheCostWinner(t *testing.T) {
	build := func(rescore bool) (*fedqcc.Federation, *fedqcc.Calibrator) {
		fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, RuntimeReroute: rescore})
		return fed, cal
	}
	costFed, costCal := build(false)
	rFed, rCal := build(true)
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
			got, err := rFed.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(want.Route) != fmt.Sprint(got.Route) {
				t.Fatalf("round %d %q: rescored route %v != cost-based route %v",
					round, sql, got.Route, want.Route)
			}
			costCal.PublishNow()
			rCal.PublishNow()
		}
	}
	if st := rCal.RoutingStats(); st.RescoreChecks == 0 || st.RescoreSwitches != 0 {
		t.Fatalf("routing stats %+v: want fragments re-checked and none moved", st)
	}
}

// TestDispatchRecheckHonoursRetryExclusion: a fragment failure excludes its
// server from the query's retries, whose menus omit it, so the dispatch
// re-check can never move a retry back onto it. The query needs exactly the
// retries it needs with the re-check off.
func TestDispatchRecheckHonoursRetryExclusion(t *testing.T) {
	const sql = "SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.02"
	for _, tc := range []struct {
		mode      fedqcc.LBMode
		closeness float64
	}{{fedqcc.LBOff, 0}, {fedqcc.LBGlobal, 1}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			run := func(rescore bool) int {
				fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50})
				if err != nil {
					t.Fatal(err)
				}
				cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
				cal.SetRouting(tc.mode, tc.closeness, rescore)
				// Twenty clean runs cache the statement and keep the reliability
				// penalty of one failure small.
				for i := 0; i < 20; i++ {
					if _, err := fed.Query(sql); err != nil {
						t.Fatal(err)
					}
				}
				// Every replica but the one whose cheapest plan ranks last fails
				// its next three dispatches.
				plans, err := fed.EnumeratePlans(sql, 0)
				if err != nil {
					t.Fatal(err)
				}
				var replicas []string
				for _, p := range plans {
					if !slices.Contains(replicas, p.Route["QF1"]) {
						replicas = append(replicas, p.Route["QF1"])
					}
				}
				for _, id := range replicas[:len(replicas)-1] {
					h, err := fed.Server(id)
					if err != nil {
						t.Fatal(err)
					}
					h.InjectFailures(3)
				}
				res, err := fed.Query(sql)
				if err != nil {
					t.Fatalf("rescore %v: %v", rescore, err)
				}
				rec, ok := fed.QueryRecord(res.ID)
				if !ok {
					t.Fatalf("no record for query %d", res.ID)
				}
				failed := map[string]int{}
				for _, e := range rec.Errors {
					if failed[e.ServerID]++; failed[e.ServerID] > 1 {
						t.Errorf("rescore %v: a retry dispatched to %s, which the query had excluded: errors %+v", rescore, e.ServerID, rec.Errors)
					}
				}
				for _, run := range rec.Runs {
					if failed[run.ServerID] > 0 {
						t.Errorf("rescore %v: fragment %s ran on %s, which the query had excluded", rescore, run.FragID, run.ServerID)
					}
				}
				if len(rec.Errors) != res.Retried {
					t.Errorf("rescore %v: %d errors for %d retries", rescore, len(rec.Errors), res.Retried)
				}
				return res.Retried
			}
			off, on := run(false), run(true)
			if off == 0 || on != off {
				t.Errorf("retried %d with the re-check on, %d with it off: want the same, at least 1", on, off)
			}
		})
	}
}

// TestDispatchRecheckRunsNoExplain: the dispatch re-check prices the compiled
// menu, so a warm query (its statement cached) runs no remote explain, adds
// no candidate to its journal record and no compile to QCC's count.
func TestDispatchRecheckRunsNoExplain(t *testing.T) {
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	tel := fed.EnableTelemetry()
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, RuntimeReroute: true})
	queries := []string{
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100",
		"SELECT COUNT(*) FROM customer AS c WHERE c.c_discount > 0.05",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01",
	}
	explains := func() (n int64) {
		for _, m := range tel.Metrics().Snapshot() {
			if m.Name == "mw.explains" {
				n += int64(m.Value)
			}
		}
		return n
	}
	for _, sql := range queries { // cold: each statement compiles once
		if _, err := fed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	explained, compiles := explains(), cal.StatsSnapshot().Compiles
	if explained == 0 || compiles == 0 {
		t.Fatalf("cold compiles ran %d explains, QCC counted %d compiles: the counters read nothing", explained, compiles)
	}
	for round := 0; round < 10; round++ {
		for _, sql := range queries {
			res, err := fed.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := fed.QueryRecord(res.ID)
			if !ok {
				t.Fatalf("no record for query %d", res.ID)
			}
			if len(rec.Candidates) != 0 {
				t.Fatalf("round %d %q: the warm query recorded %d candidates, want 0", round, sql, len(rec.Candidates))
			}
		}
		cal.PublishNow()
	}
	if got := explains() - explained; got != 0 {
		t.Errorf("warm queries ran %d remote explains, want 0", got)
	}
	if got := cal.StatsSnapshot().Compiles - compiles; got != 0 {
		t.Errorf("warm queries added %d compiles to QCC's count, want 0", got)
	}
	if st := cal.RoutingStats(); st.RescoreChecks == 0 {
		t.Errorf("routing stats %+v: no fragment was re-checked", st)
	}
}

// TestDispatchRecheckKeepsRotatedPicks: on calm servers the dispatch re-check
// agrees with the rotation's band, so every query the rotation moved off the
// winner runs where it was picked, and Rotations counts exactly those.
func TestDispatchRecheckKeepsRotatedPicks(t *testing.T) {
	const sql = "SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.02"
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	cal.SetRouting(fedqcc.LBGlobal, 1.0, true)
	rotated := int64(0)
	for i := 0; i < 12; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := fed.QueryRecord(res.ID)
		if !ok {
			t.Fatalf("no record for query %d", res.ID)
		}
		var route []string
		for frag, server := range res.Route {
			route = append(route, frag+"@"+server)
		}
		sort.Strings(route)
		for _, d := range rec.Decisions {
			if !strings.Contains(d.Reason, "rotated off winner") {
				continue
			}
			rotated++
			if ran := strings.Join(route, "+"); d.Route != ran {
				t.Errorf("query %d was rotated to %s but ran %s (decisions %+v)", i, d.Route, ran, rec.Decisions)
			}
		}
	}
	if rotated == 0 {
		t.Fatal("no query rotated off the winner: the band holds one route")
	}
	if st := cal.RoutingStats(); st.Rotations != rotated || st.RescoreSwitches != 0 {
		t.Errorf("routing stats %+v: want %d rotations, the rotated queries, and no switch", st, rotated)
	}
}

// TestWeightedReplicaFailover fences a server mid-workload and asserts
// queries keep succeeding on the surviving replicas with identical rows and
// no typed engine errors leaking to the caller.
func TestWeightedReplicaFailover(t *testing.T) {
	replicaFailover(t, 6, func(cal *fedqcc.Calibrator) {
		cal.SetRouting(fedqcc.LBWeighted, 0, true)
	})
}

// TestRotationAvoidsFencedReplica holds the rotation modes to the same
// failover contract: a rotation set cached from before the failure must not
// send a query to a server the optimizer's menu no longer offers.
func TestRotationAvoidsFencedReplica(t *testing.T) {
	for _, mode := range []fedqcc.LBMode{fedqcc.LBFragment, fedqcc.LBGlobal} {
		t.Run(mode.String(), func(t *testing.T) {
			replicaFailover(t, 9, func(cal *fedqcc.Calibrator) {
				cal.SetRouting(mode, 1.0, false)
			})
		})
	}
}

// replicaFailover warms one statement up on a replicated federation routed
// by route, takes the last-used server down, and checks the retry path (down,
// not yet probed) and the fenced path (postFence queries after a probe).
func replicaFailover(t *testing.T, postFence int, route func(*fedqcc.Calibrator)) {
	fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	route(cal)

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
	// must already absorb the failure — once: the failed dispatch fences the
	// server, and nothing may return to it.
	retried := 0
	for i := 0; i < 4; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatalf("query %d with %s down (unfenced): %v", i, pinned, err)
		}
		if rows := fmt.Sprint(res.Rows.Rows); rows != wantRows {
			t.Fatalf("rows after failure %s != %s", rows, wantRows)
		}
		retried += res.Retried
	}
	if retried > 1 {
		t.Errorf("%d retries with %s down: only the first dispatch to it may fail", retried, pinned)
	}

	// After a probe fences it, routing must avoid the server outright.
	cal.ProbeNow()
	if !cal.IsFenced(pinned) {
		t.Fatalf("probe did not fence the downed server %s", pinned)
	}
	for i := 0; i < postFence; i++ {
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

// TestRouteDecisionsLogged checks the journal's decision entries every policy
// writes: round-robin records rotations, the weighted router records replica
// choices with a score breakdown, each stamped with its query's ID; and each
// dispatched fragment's run entry records its data-shipping mode.
func TestRouteDecisionsLogged(t *testing.T) {
	fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	fed.SetColumnarWire(false) // the row protocol's ship mode is what this test reads back
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal})
	const sql = "SELECT SUM(h.h_val) FROM hot2 AS h WHERE h.h_val > 1000"
	var ids []int64
	for i := 0; i < 3; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
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
	if lb := byPolicy(all, "lb"); len(lb) != len(all) || len(lb) != 3 {
		t.Fatalf("round-robin load balancer recorded %d of %d decisions, want 3 of 3", len(lb), len(all))
	}
	for i, id := range ids {
		rec, ok := fed.QueryRecord(id)
		if !ok || len(rec.Decisions) != 1 || rec.Decisions[0] != all[i] {
			t.Fatalf("query %d: decisions %+v, want its own entry %+v", id, rec.Decisions, all[i])
		}
		if len(rec.Runs) == 0 {
			t.Fatalf("query %d: fragment dispatches recorded no run entries", id)
		}
		for _, run := range rec.Runs {
			if run.Ship.String() != "row-ship" {
				t.Errorf("ship mode = %q on the row protocol, want row-ship (%+v)", run.Ship, run)
			}
		}
	}

	cal.SetRouting(fedqcc.LBWeighted, 0, true)
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

// TestFragmentSpansCarryOnlyTheirOwnRoute: every statement numbers its
// fragments from QF1, so nothing a query records may come from another query's
// QF1. orders is replicated on S1 and S2 and its scan is scored; parts lives on
// S1 alone and is never scored. The parts query's fragment span must carry no
// router.* attribute, and its decisions must name no server it did not run on.
func TestFragmentSpansCarryOnlyTheirOwnRoute(t *testing.T) {
	schema := fedqcc.StandardSchema(100)
	fed, err := fedqcc.NewBuilder(7).
		AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddServer("S2", fedqcc.ProfilePowerful, fedqcc.LinkSpec{}).
		AddGeneratedTable("S1", schema[0]). // orders
		AddGeneratedTable("S2", schema[0]).
		AddGeneratedTable("S1", schema[3]). // parts
		Build()
	if err != nil {
		t.Fatal(err)
	}
	fed.EnableTelemetry()
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	cal.SetRouting(fedqcc.LBWeighted, 0, true)

	record := func(sql string) (*fedqcc.QueryResult, fedqcc.QueryRecord) {
		t.Helper()
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		rec, ok := fed.QueryRecord(res.ID)
		if !ok || rec.Trace == nil {
			t.Fatalf("%q: no record with a trace for query %d", sql, res.ID)
		}
		return res, rec
	}
	_, orders := record("SELECT COUNT(*) FROM orders AS o")
	if len(orders.Decisions) == 0 || !strings.Contains(orders.Decisions[0].Reason, "cpu=") {
		t.Fatalf("the orders scan was not scored: decisions %+v", orders.Decisions)
	}

	parts, rec := record("SELECT COUNT(*) FROM parts AS p")
	fragments := 0
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		if s.Name() == "fragment" {
			fragments++
			for _, a := range s.Attrs() {
				if strings.HasPrefix(a.Key, "router.") {
					t.Errorf("the parts fragment's span on %s carries %s=%s", s.Server(), a.Key, a.Value)
				}
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(rec.Trace.Root)
	if fragments != 1 {
		t.Fatalf("the parts query's trace has %d fragment spans, want 1", fragments)
	}
	ran := map[string]bool{}
	for _, server := range parts.Route {
		ran[server] = true
	}
	for _, d := range rec.Decisions {
		for _, server := range []string{"S1", "S2"} {
			if !ran[server] && strings.Contains(d.Route+" "+d.Reason, server) {
				t.Errorf("the parts query ran on %v, but its decision names %s: %+v", parts.Route, server, d)
			}
		}
	}
}

// routeHasher folds every query's Route (fragment → server, in fragment-ID
// order) into one FNV-1a hash: one literal pins a whole route sequence.
type routeHasher struct {
	t   *testing.T
	fed *fedqcc.Federation
	seq []string
}

func (h *routeHasher) query(sql string) {
	h.t.Helper()
	res, err := h.fed.Query(sql)
	if err != nil {
		h.t.Fatalf("%q: %v", sql, err)
	}
	frags := make([]string, 0, len(res.Route))
	for f := range res.Route {
		frags = append(frags, f)
	}
	sort.Strings(frags)
	step := ""
	for _, f := range frags {
		step += f + "@" + res.Route[f] + " "
	}
	h.seq = append(h.seq, step)
}

func (h *routeHasher) sum() string {
	d := fnv.New64a()
	for _, s := range h.seq {
		d.Write([]byte(s + "\n"))
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// hotBurst is experiment.weightedBurstQueries: four scan shapes, one per hot
// table, a period coprime with the three-replica rotation.
var hotBurst = []string{
	"SELECT SUM(h.h_val) FROM hot1 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot2 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot3 AS h WHERE h.h_val > 1000",
	"SELECT SUM(h.h_val) FROM hot4 AS h WHERE h.h_val > 1000",
}

// xjoinTemplates are bench/'s xjoin_churn templates at fixed parameters.
var xjoinTemplates = []string{
	"SELECT o.o_id, l.l_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 4200 AND 4700 AND l.l_qty BETWEEN 12 AND 21",
	"SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount BETWEEN 3000 AND 5000 GROUP BY o.o_priority ORDER BY o.o_priority",
	"SELECT c.c_segment, COUNT(*), SUM(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_discount BETWEEN 0.0400 AND 0.0900 GROUP BY c.c_segment ORDER BY c.c_segment",
	"SELECT COUNT(*), AVG(o.o_amount), MAX(o.o_qty) FROM orders AS o WHERE o.o_amount BETWEEN 2500 AND 7500",
}

// TestRouteSequencePinned pins the server every fragment of every query ran
// on, for the four routing configurations the benchmark and the studies
// exercise. The literals were captured from the three policy
// implementations this router replaced (the LBGlobal ones after their
// map-order tie was fixed) and must never be re-captured to make a routing
// change pass: a changed hash is a changed route sequence. The one
// re-capture is xjoin_churn's, when a statement's rotation turn moved into
// its plan-cache entry: each round's orders burst drops every entry, so
// each round starts at the winner instead of rotating on from the last.
func TestRouteSequencePinned(t *testing.T) {
	replicated := func() (*fedqcc.Federation, error) {
		return fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	}
	hotspot := func(h *routeHasher, cal *fedqcc.Calibrator) {
		for i := 0; i < 6*len(hotBurst); i++ {
			h.query(hotBurst[i%len(hotBurst)])
			cal.PublishNow()
		}
	}
	cases := []struct {
		name  string
		build func() (*fedqcc.Federation, error)
		drive func(h *routeHasher)
		want  string
	}{
		{
			name: "xjoin_churn fragment rotation",
			build: func() (*fedqcc.Federation, error) {
				return fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100, Seed: 42})
			},
			drive: func(h *routeHasher) {
				cal := h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBFragment, LBCloseness: 0.5})
				n := 0
				for round := 0; round < 8; round++ {
					for _, id := range []string{"S1", "R1"} {
						srv, err := h.fed.Server(id)
						if err != nil {
							t.Fatal(err)
						}
						if err := srv.ApplyUpdateBurst("orders", 20, int64(round)); err != nil {
							t.Fatal(err)
						}
					}
					for _, sql := range xjoinTemplates {
						h.query(sql)
						if n++; n%8 == 0 {
							cal.PublishNow()
						}
					}
				}
			},
			want: "88390cfa5df4ea45",
		},
		{
			name: "paper_mix load flips",
			build: func() (*fedqcc.Federation, error) {
				return fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 20, Seed: 42})
			},
			drive: func(h *routeHasher) {
				h.fed.EnableQCC(fedqcc.QCCOptions{})
				phases := workload.Phases()
				for _, ph := range []workload.Phase{phases[0], phases[1], phases[3]} {
					for _, id := range []string{"S1", "S2", "S3"} {
						srv, err := h.fed.Server(id)
						if err != nil {
							t.Fatal(err)
						}
						srv.SetLoad(ph.LoadLevel(id))
					}
					for round := 0; round < 6; round++ {
						for _, it := range workload.UniformMix(2) {
							h.query(it.SQL)
						}
					}
				}
			},
			want: "4e33786aeb61bce4",
		},
		{
			name:  "hotspot global rotation",
			build: replicated,
			drive: func(h *routeHasher) {
				hotspot(h, h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal, LBCloseness: 0.2}))
			},
			want: "96cc8835d906b8e5",
		},
		{
			name:  "hotspot weighted",
			build: replicated,
			drive: func(h *routeHasher) {
				cal := h.fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBGlobal, LBCloseness: 0.2})
				cal.SetRouting(fedqcc.LBWeighted, 0, true)
				hotspot(h, cal)
			},
			want: "7aeb3712b008e915",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fed, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			h := &routeHasher{t: t, fed: fed}
			tc.drive(h)
			if got := h.sum(); got != tc.want {
				t.Errorf("route sequence hash = %s, want %s\n%v", got, tc.want, h.seq)
			}
		})
	}
}

// rotatingReplicas is a fully replicated federation whose calibrator rotates
// whole global plans across all three replicas of a table.
func rotatingReplicas(t *testing.T) (*fedqcc.Federation, *fedqcc.Calibrator) {
	t.Helper()
	fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	cal.SetRouting(fedqcc.LBGlobal, 1.0, false)
	return fed, cal
}

// ranOn runs sql n times and returns the servers its one fragment ran on.
func ranOn(t *testing.T, fed *fedqcc.Federation, sql string, n int) string {
	t.Helper()
	var seq []string
	for i := 0; i < n; i++ {
		res, err := fed.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, res.Route["QF1"])
	}
	return strings.Join(seq, " ")
}

// TestSetRoutingStartsEveryStatementAtItsWinner: a new route policy starts
// every cached statement's rotation over, as Calibrator.SetRouting promises.
func TestSetRoutingStartsEveryStatementAtItsWinner(t *testing.T) {
	sql := hotBurst[0]
	fed, cal := rotatingReplicas(t)
	if got := ranOn(t, fed, sql, 2); got != "S1 S2" {
		t.Fatalf("first policy ran %s, want S1 S2", got)
	}
	cal.SetRouting(fedqcc.LBGlobal, 1.0, false)
	if got := ranOn(t, fed, sql, 2); got != "S1 S2" {
		t.Errorf("after SetRouting the statement ran %s, want S1 S2 from its winner", got)
	}
}

// TestExplainTakesNoRotationTurn: explain mode reports the optimizer's winner
// and leaves the statement's rotation where it was, so the queries run the
// same servers with or without an Explain before each.
func TestExplainTakesNoRotationTurn(t *testing.T) {
	sql := hotBurst[0]
	run := func(explain bool) (explained, ran string) {
		fed, _ := rotatingReplicas(t)
		for i := 0; i < 4; i++ {
			if explain {
				info, err := fed.Explain(sql)
				if err != nil {
					t.Fatal(err)
				}
				explained += info.Route["QF1"] + " "
			}
			ran += ranOn(t, fed, sql, 1) + " "
		}
		return explained, ran
	}
	_, alone := run(false)
	if alone != "S1 S2 S3 S1 " {
		t.Fatalf("queries alone ran %s, want S1 S2 S3 S1", alone)
	}
	explained, ran := run(true)
	if explained != "S1 S1 S1 S1 " {
		t.Errorf("explains reported %s, want the winner S1 each time", explained)
	}
	if ran != alone {
		t.Errorf("with an Explain before each the queries ran %s, want %s as alone", ran, alone)
	}
}

// TestConcurrentQueriesShareOneTurn: every query of a cached statement takes
// its pick from the statement's one turn, which only the router's lock moves,
// so 240 concurrent queries split exactly in thirds over three replicas.
func TestConcurrentQueriesShareOneTurn(t *testing.T) {
	sql := hotBurst[0]
	fed, _ := rotatingReplicas(t)
	ranOn(t, fed, sql, 1) // caches the statement and its turn
	var (
		mu  sync.Mutex
		ran = map[string]int{}
		wg  sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := fed.QueryContext(context.Background(), sql)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ran[res.Route["QF1"]]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(ran) != 3 || ran["S1"] != 80 || ran["S2"] != 80 || ran["S3"] != 80 {
		t.Errorf("240 concurrent queries ran %v, want 80 on each of S1, S2 and S3", ran)
	}
}

// TestRotationOrderIsReproducible: equal-cost plans (uniform replicas, fresh
// calibration) must rotate in one order. The rotation studies are the
// sharpest probe: any tie broken by map order or an unstable sort shows up
// as a different row.
func TestRotationOrderIsReproducible(t *testing.T) {
	opts := experiment.Options{Scale: 100}
	run := func() string {
		lb, err := experiment.LoadBalanceStudy(opts, 20)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := experiment.WeightedRoutingStudy(opts, 24)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v", lb, rr[0])
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d of the rotation studies differs from run 0:\n%s\n%s", i, got, want)
		}
	}
}

// TestDisableQCCClearsRouting: the integrator has one routing slot, so
// detaching or replacing the calibrator leaves nothing of the old policy
// behind — no dispatch-time check runs on a detached calibrator's signals
// and no decision is logged under a replaced policy's label.
func TestDisableQCCClearsRouting(t *testing.T) {
	const sql = "SELECT SUM(h.h_val) FROM hot1 AS h WHERE h.h_val > 1000"
	type step func(fed *fedqcc.Federation) *fedqcc.Calibrator
	enable := func(opts fedqcc.QCCOptions) step {
		opts.DisableDaemons = true
		return func(fed *fedqcc.Federation) *fedqcc.Calibrator { return fed.EnableQCC(opts) }
	}
	weighted := func(fed *fedqcc.Federation) *fedqcc.Calibrator {
		cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
		cal.SetRouting(fedqcc.LBWeighted, 0, true)
		return cal
	}
	for _, tc := range []struct {
		name        string
		first, then step // then == nil: DisableQCC
	}{
		{"rescore then DisableQCC", enable(fedqcc.QCCOptions{RuntimeReroute: true}), nil},
		{"rescore then EnableQCC without it", enable(fedqcc.QCCOptions{RuntimeReroute: true}), enable(fedqcc.QCCOptions{})},
		{"weighted then DisableQCC", weighted, nil},
		{"weighted then plain EnableQCC", weighted, enable(fedqcc.QCCOptions{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
			if err != nil {
				t.Fatal(err)
			}
			query := func() {
				t.Helper()
				for i := 0; i < 3; i++ {
					if _, err := fed.Query(sql); err != nil {
						t.Fatal(err)
					}
				}
			}
			weightedLogged := func() int {
				n := 0
				for _, d := range fed.RouteDecisions(0) {
					if d.Policy == "weighted" {
						n++
					}
				}
				return n
			}
			old := tc.first(fed)
			query()
			before := old.RoutingStats()
			if before.RescoreChecks == 0 {
				t.Fatal("setup: the first policy ran no dispatch-time check")
			}
			logged := weightedLogged()
			var cur *fedqcc.Calibrator
			if tc.then == nil {
				fed.DisableQCC()
			} else {
				cur = tc.then(fed)
			}
			query()
			if cur != nil && cur.RoutingStats() != (fedqcc.RoutingStats{}) {
				t.Errorf("a policy with no rotation and no rescore counted %+v", cur.RoutingStats())
			}
			if after := old.RoutingStats(); after != before {
				t.Errorf("the replaced policy kept running: %+v -> %+v", before, after)
			}
			if n := weightedLogged(); n != logged {
				t.Errorf("%d weighted decisions logged after the policy was replaced", n-logged)
			}
		})
	}
}
