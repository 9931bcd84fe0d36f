package fedqcc_test

import (
	"math"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

func paperFed(t *testing.T) *fedqcc.Federation {
	t.Helper()
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestPaperFederationQuery(t *testing.T) {
	fed := paperFed(t)
	res, err := fed.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Cardinality() != 1 {
		t.Fatalf("rows: %d", res.Rows.Cardinality())
	}
	if res.ResponseTime <= 0 || len(res.Route) != 1 {
		t.Fatalf("result: %+v", res)
	}
	if fed.Now() != res.ResponseTime {
		t.Fatal("clock must advance by response time")
	}
	if len(fed.QueryLog()) != 1 {
		t.Fatal("query log")
	}
}

func TestExplainAndEnumerate(t *testing.T) {
	fed := paperFed(t)
	info, err := fed.Explain("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalCostMS <= 0 || len(info.Route) != 1 {
		t.Fatalf("plan info: %+v", info)
	}
	if !strings.Contains(info.FragmentPlans["QF1"], "SCAN") {
		t.Fatalf("fragment plan text: %q", info.FragmentPlans["QF1"])
	}
	if len(fed.ExplainLog()) != 1 {
		t.Fatal("explain table")
	}
	plans, err := fed.EnumeratePlans("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("enumerated: %d", len(plans))
	}
}

func TestServerHandleControls(t *testing.T) {
	fed := paperFed(t)
	h, err := fed.Server("S3")
	if err != nil || h.ID() != "S3" {
		t.Fatal(err)
	}
	if _, err := fed.Server("S9"); err == nil {
		t.Fatal("unknown server")
	}
	h.SetLoad(0.7)
	if h.Load() != 0.7 {
		t.Fatal("load")
	}
	h.SetDown(true)
	if !h.Down() {
		t.Fatal("down")
	}
	h.SetDown(false)
	h.SetCongestion(2)
	h.PartitionNetwork(true)
	if _, err := fed.Query("SELECT COUNT(*) FROM parts AS p"); err != nil {
		t.Fatal("other servers must still serve:", err)
	}
	h.PartitionNetwork(false)
	if err := h.ApplyUpdateBurst("orders", 3, 1); err != nil {
		t.Fatal(err)
	}
	if h.Executed() != 0 {
		t.Fatal("executed count")
	}
}

func TestCatalogIntrospection(t *testing.T) {
	fed := paperFed(t)
	names := fed.Nicknames()
	if len(names) != 4 {
		t.Fatalf("nicknames: %v", names)
	}
	hosts, err := fed.PlacementsOf("orders")
	if err != nil || len(hosts) != 3 {
		t.Fatalf("placements: %v %v", hosts, err)
	}
	schema, err := fed.Schema("orders")
	if err != nil || schema.Len() != 5 {
		t.Fatalf("schema: %v %v", schema, err)
	}
	if _, err := fed.Schema("ghost"); err == nil {
		t.Fatal("unknown nickname")
	}
}

func TestEnableQCCLearnsAndReroutes(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	const q = "SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01"
	res, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	preferred := res.Route["QF1"]
	h, _ := fed.Server(preferred)
	h.SetLoad(1)
	for i := 0; i < 3; i++ {
		if _, err := fed.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	cal.PublishNow()
	if cal.ServerFactor(preferred) <= 1.1 {
		t.Fatalf("factor: %g", cal.ServerFactor(preferred))
	}
	res, err = fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route["QF1"] == preferred {
		t.Fatal("must reroute away from loaded server")
	}
	if st := cal.StatsSnapshot(); st.Compiles == 0 || st.Runs == 0 {
		t.Fatal("stats")
	}
}

func TestQCCFencingViaPublicAPI(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	h, _ := fed.Server("S3")
	h.SetDown(true)
	cal.ProbeNow()
	if !cal.IsFenced("S3") {
		t.Fatal("fencing")
	}
	res, err := fed.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Route["QF1"] == "S3" {
		t.Fatal("fenced server used")
	}
	h.SetDown(false)
	cal.ProbeNow()
	if cal.IsFenced("S3") {
		t.Fatal("recovery")
	}
	if cal.ReliabilityFactor("S3") <= 1 {
		t.Fatal("reliability factor should reflect the failed probe")
	}
}

func TestDisableQCC(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	fed.DisableQCC()
	if _, err := fed.Query("SELECT COUNT(*) FROM parts AS p"); err != nil {
		t.Fatal(err)
	}
	if cal.StatsSnapshot().Runs != 0 {
		t.Fatal("disabled QCC must not observe")
	}
}

// TestFixedCycleAtDefaultIntervalNeverAdapts: FixedCycle without
// RecalibrationMS keeps the default 500 ms cycle through a quiet period in
// which the dynamic cycle would grow.
func TestFixedCycleAtDefaultIntervalNeverAdapts(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{FixedCycle: true})
	start := cal.RecalibrationInterval()
	if start != 500 {
		t.Fatalf("default cycle = %v, want 500", start)
	}
	fed.Clock().Advance(5000)
	if got := cal.RecalibrationInterval(); got != start {
		t.Fatalf("fixed cycle adapted: %v -> %v", start, got)
	}
}

func TestLoadBalanceViaPublicAPI(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{
		DisableDaemons: true,
		LoadBalance:    fedqcc.LBGlobal,
		LBCloseness:    3,
	})
	used := map[string]bool{}
	for i := 0; i < 9; i++ {
		res, err := fed.Query("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
		if err != nil {
			t.Fatal(err)
		}
		used[res.Route["QF1"]] = true
	}
	if len(used) < 2 {
		t.Fatalf("rotation: %v", used)
	}
	if cal.RoutingStats().Rotations == 0 {
		t.Fatal("rotations counter")
	}
	cal.SetRouting(fedqcc.LBOff, 0, false)
	if cal.RoutingStats() != (fedqcc.RoutingStats{}) {
		t.Fatal("a new policy starts its stats over")
	}
}

func TestWhatIfViaPublicAPI(t *testing.T) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	wi, err := cal.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500"
	plans, err := wi.EnumeratePlans(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 4 {
		t.Fatalf("what-if plans: %d", len(plans))
	}
	masked, runs, err := wi.EnumerateByMasking(q)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4 || len(masked) != 4 {
		t.Fatalf("masking: %d plans in %d runs", len(masked), runs)
	}
	// What-if must not have executed anything on production servers.
	for _, id := range fed.ServerIDs() {
		h, _ := fed.Server(id)
		if h.Executed() != 0 {
			t.Fatalf("what-if executed on %s", id)
		}
	}
}

func TestBuilderCustomFederation(t *testing.T) {
	specs := fedqcc.StandardSchema(200)
	b := fedqcc.NewBuilder(7).
		AddServer("alpha", fedqcc.ProfileModest, fedqcc.LinkSpec{LatencyMS: 3}).
		AddServer("beta", fedqcc.ProfilePowerful, fedqcc.LinkSpec{LatencyMS: 9})
	for _, spec := range specs {
		b.AddGeneratedTable("alpha", spec)
	}
	b.AddGeneratedTable("beta", specs[0]) // beta replicates orders only
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := fed.PlacementsOf("orders")
	if err != nil || len(hosts) != 2 {
		t.Fatalf("orders hosts: %v %v", hosts, err)
	}
	hosts, _ = fed.PlacementsOf("parts")
	if len(hosts) != 1 || hosts[0] != "alpha" {
		t.Fatalf("parts hosts: %v", hosts)
	}
	res, err := fed.Query("SELECT COUNT(*) FROM orders AS o JOIN customer AS c ON o.o_custkey = c.c_id")
	if err != nil {
		t.Fatal(err)
	}
	// customer only lives on alpha, so the co-located join must run there.
	if res.Route["QF1"] != "alpha" {
		t.Fatalf("route: %v", res.Route)
	}
}

// The Builder and the canned constructors are two doors onto one assembler: a
// Builder handed the paper's three servers and schema must produce a
// federation indistinguishable from NewPaperFederation — rows, routes, span
// trees and every virtual time, with QCC calibrating under load on both.
func TestBuilderReproducesPaperFederation(t *testing.T) {
	const scale, seed = 100, 7
	paper, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b := fedqcc.NewBuilder(seed).
		AddServer("S1", fedqcc.ProfileModest, fedqcc.LinkSpec{}).
		AddServer("S2", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddServer("S3", fedqcc.ProfilePowerful, fedqcc.LinkSpec{})
	for _, id := range []string{"S1", "S2", "S3"} {
		for _, spec := range fedqcc.StandardSchema(scale) {
			b.AddGeneratedTable(id, spec)
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sqls []string
	for i := 0; i < 3; i++ {
		for _, qt := range workload.Types() {
			sqls = append(sqls, qt.Make(i))
		}
	}
	run := func(fed *fedqcc.Federation) vecRunOutcome {
		fed.EnableQCC(fedqcc.QCCOptions{})
		h, err := fed.Server("S3")
		if err != nil {
			t.Fatal(err)
		}
		h.SetLoad(0.9)
		return runWorkloadOn(t, fed, sqls)
	}
	requireVecIdentity(t, sqls, run(paper), run(built))
}

// A sharded table declared after replicated ones on overlapping servers: each
// declaration keeps its own host order, the physical shard tables do not
// surface as nicknames, and a join across the two returns what a
// single-server federation over the same data returns.
func TestBuilderShardedAfterReplicated(t *testing.T) {
	specs := fedqcc.StandardSchema(100) // orders, lineitem, customer, parts
	b := fedqcc.NewBuilder(7).
		AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddServer("S2", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddServer("S3", fedqcc.ProfileMidrange, fedqcc.LinkSpec{}).
		AddReplicatedTable(specs[0], "S2", "S1").
		AddReplicatedTable(specs[2], "S3", "S2").
		AddShardedTable(specs[1], "l_orderkey", "S1", "S2", "S3")
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fed.Nicknames(), " "); got != "customer lineitem orders" {
		t.Fatalf("nicknames: %s", got)
	}
	for nick, want := range map[string]string{"orders": "S2 S1", "customer": "S3 S2", "lineitem": "S1 S2 S3"} {
		hosts, err := fed.PlacementsOf(nick)
		if err != nil || strings.Join(hosts, " ") != want {
			t.Fatalf("%s hosts: %v %v, want %s", nick, hosts, err, want)
		}
	}
	single := fedqcc.NewBuilder(7).AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{})
	for _, spec := range specs[:3] {
		single.AddGeneratedTable("S1", spec)
	}
	truth, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT COUNT(*), SUM(l.l_price) FROM lineitem AS l",
		"SELECT o.o_priority, COUNT(*) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE l.l_qty < 5 GROUP BY o.o_priority ORDER BY o.o_priority",
		"SELECT c.c_segment, COUNT(*) FROM orders AS o JOIN customer AS c ON o.o_custkey = c.c_id GROUP BY c.c_segment ORDER BY c.c_segment",
	} {
		got, err := fed.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := truth.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got.Rows.Rows) == 0 || len(got.Rows.Rows) != len(want.Rows.Rows) {
			t.Fatalf("%s: %d rows, want %d", q, len(got.Rows.Rows), len(want.Rows.Rows))
		}
		for ri, row := range want.Rows.Rows {
			for ci := range row {
				g, w := got.Rows.Rows[ri][ci], row[ci]
				if g.Kind() == sqltypes.KindFloat && math.Abs(g.Float()-w.Float()) <= 1e-6*math.Abs(w.Float()) {
					continue // a float SUM adds in shard order
				}
				if g != w {
					t.Fatalf("%s: cell (%d,%d) %v, want %v", q, ri, ci, g, w)
				}
			}
		}
	}
	res, err := fed.Query("SELECT COUNT(*) FROM lineitem AS l")
	if err != nil || len(res.Route) != 3 {
		t.Fatalf("lineitem must scatter to its three shards: %v %v", res.Route, err)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := fedqcc.NewBuilder(1).Build(); err == nil {
		t.Fatal("empty federation")
	}
	b := fedqcc.NewBuilder(1).AddServer("a", fedqcc.ProfileModest, fedqcc.LinkSpec{})
	if _, err := b.Build(); err == nil {
		t.Fatal("no tables")
	}
	b = fedqcc.NewBuilder(1).
		AddServer("a", fedqcc.ProfileModest, fedqcc.LinkSpec{}).
		AddServer("a", fedqcc.ProfileModest, fedqcc.LinkSpec{})
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate server")
	}
	b = fedqcc.NewBuilder(1).AddGeneratedTable("ghost", fedqcc.StandardSchema(200)[0])
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown server for table")
	}
}

func TestBuilderFileServerSeeding(t *testing.T) {
	specs := fedqcc.StandardSchema(200)
	b := fedqcc.NewBuilder(3).
		AddFileServer("files", fedqcc.ProfileModest, fedqcc.LinkSpec{LatencyMS: 2})
	b.AddGeneratedTable("files", specs[3]) // parts
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	cal.ProbeNow() // seeds the probe-based estimate for the file source
	res, err := fed.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Rows[0][0].Int() == 0 {
		t.Fatal("file scan returned nothing")
	}
	// After one observed run the seed estimate is available.
	cal.PublishNow()
	info, err := fed.Explain("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if info.FragmentCostMS["QF1"] <= 0 {
		t.Fatalf("file source cost must be seeded: %+v", info)
	}
}

func TestRunStudiesViaPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("studies are slow")
	}
	sens, err := fedqcc.RunSensitivityStudy(fedqcc.ExperimentOptions{Scale: 100, Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 4 {
		t.Fatalf("sensitivity: %d", len(sens))
	}
	if out := fedqcc.FormatFigure9(sens); !strings.Contains(out, "QT2") {
		t.Fatal("format")
	}
}

func TestCSVTablesAndExport(t *testing.T) {
	const csvIn = "pk:INT,label:STRING,score:FLOAT\n1,alpha,0.5\n2,beta,1.5\n3,gamma,2.5\n"
	b := fedqcc.NewBuilder(5).
		AddServer("s", fedqcc.ProfileMidrange, fedqcc.LinkSpec{LatencyMS: 2}).
		AddCSVTable("s", "items", strings.NewReader(csvIn)).
		AddIndex("s", "items", "items_pk", "pk", true)
	fed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query("SELECT COUNT(*), SUM(i.score) FROM items AS i WHERE i.pk >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Rows[0][0].Int() != 2 || res.Rows.Rows[0][1].Float() != 4 {
		t.Fatalf("csv query: %v", res.Rows.Rows[0])
	}
	var out strings.Builder
	if err := fed.ExportCSV("s", "items", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pk:INT") || !strings.Contains(out.String(), "gamma") {
		t.Fatalf("export: %q", out.String())
	}
	if err := fed.ExportCSV("s", "ghost", &out); err == nil {
		t.Fatal("unknown table export")
	}
	if err := fed.ExportCSV("nope", "items", &out); err == nil {
		t.Fatal("unknown server export")
	}
	// Builder error paths.
	if _, err := fedqcc.NewBuilder(1).AddCSVTable("ghost", "x", strings.NewReader("a:INT\n")).Build(); err == nil {
		t.Fatal("unknown server for csv table")
	}
	if _, err := fedqcc.NewBuilder(1).
		AddServer("s", fedqcc.ProfileModest, fedqcc.LinkSpec{}).
		AddIndex("s", "ghost", "i", "c", true).Build(); err == nil {
		t.Fatal("index on unknown table")
	}
}

func TestRuntimeReroutePublicAPI(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, RuntimeReroute: true})
	if _, err := fed.Query("SELECT COUNT(*) FROM parts AS p"); err != nil {
		t.Fatal(err)
	}
	if cal.RoutingStats().RescoreChecks == 0 {
		t.Fatal("reroute checks must be counted")
	}
}

func TestAdvisorPublicAPI(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	if _, err := fed.Query("SELECT COUNT(*) FROM parts AS p"); err != nil {
		t.Fatal(err)
	}
	cal.PublishNow()
	// Fully replicated + calm: no recommendations.
	if recs := cal.AdvisePlacement(0); len(recs) != 0 {
		t.Fatalf("unexpected recommendations: %+v", recs)
	}
	// ApplyReplication validation surfaces errors.
	err := fed.ApplyReplication(fedqcc.PlacementRecommendation{Nickname: "ghost", From: "S1", To: "S2"})
	if err == nil {
		t.Fatal("bad recommendation must fail")
	}
}

func TestCostPolicyBansServer(t *testing.T) {
	fed := paperFed(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})
	res, err := fed.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	banned := res.Route["QF1"]
	cal.SetCostPolicy(func(serverID string, costMS float64) float64 {
		if serverID == banned {
			return math.Inf(1)
		}
		return costMS
	})
	res, err = fed.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Route["QF1"] == banned {
		t.Fatalf("policy ban ignored: %v", res.Route)
	}
	// Clearing the policy restores the default ranking.
	cal.SetCostPolicy(nil)
	res, err = fed.Query("SELECT COUNT(*) FROM parts AS p")
	if err != nil {
		t.Fatal(err)
	}
	if res.Route["QF1"] != banned {
		t.Fatalf("policy not cleared: %v", res.Route)
	}
}

func TestConcurrentQueriesAreRaceFree(t *testing.T) {
	fed := paperFed(t)
	fed.EnableQCC(fedqcc.QCCOptions{})
	queries := []string{
		"SELECT COUNT(*) FROM parts AS p",
		"SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 5000",
		"SELECT COUNT(*) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.05",
	}
	done := make(chan error, 12)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := fed.Query(queries[(g+i)%len(queries)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(fed.QueryLog()) != 20 {
		t.Fatalf("log entries: %d", len(fed.QueryLog()))
	}
}
