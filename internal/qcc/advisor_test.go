package qcc_test

import (
	"strings"
	"testing"

	"repro/internal/qcc"
	"repro/internal/scenario"
)

// buildSkewed builds a federation where "lineitem" lives ONLY on S3: when S3 is
// persistently loaded, the advisor should recommend replicating parts to a
// cool server.
func buildSkewed(t *testing.T) (*scenario.Scenario, *qcc.QCC) {
	t.Helper()
	sc, err := scenario.BuildThreeServer(scenario.Options{
		Scale:     100,
		Exclusive: map[string]string{"lineitem": "S3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := qcc.Attach(qcc.Config{Clock: sc.Clock, MW: sc.MW, DisableDaemons: true}, sc.II)
	return sc, q
}

const skewQuery = "SELECT COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 1000"

func TestAdvisorRecommendsReplicationOffHotServer(t *testing.T) {
	sc, q := buildSkewed(t)
	sc.Servers["S3"].SetLoadLevel(1)
	for i := 0; i < 5; i++ {
		if _, err := sc.II.Query(skewQuery); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	recs := q.AdvisePlacement(sc.Catalog, sc.II.Journal().Winners.Tail(0), 1.3)
	if len(recs) == 0 {
		t.Fatalf("expected a recommendation; S3 factor=%.2f", q.Calib.ServerFactor("S3"))
	}
	rec := recs[0]
	if rec.Nickname != "lineitem" || rec.From != "S3" {
		t.Fatalf("recommendation: %+v", rec)
	}
	if rec.To != "S1" && rec.To != "S2" {
		t.Fatalf("target: %+v", rec)
	}
	if !strings.Contains(rec.Reason, "lineitem") {
		t.Fatalf("reason: %s", rec.Reason)
	}

	// Apply the recommendation: the optimizer gains an equivalent data
	// source for the previously-exclusive nickname.
	before, err := sc.II.Query(skewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.ReplicateTable(sc, rec.Nickname, rec.From, rec.To); err != nil {
		t.Fatal(err)
	}
	stmt := before.Plan.Decomp.Fragments[0].Stmt
	plans, err := sc.II.Optimizer().Enumerate(stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawReplica := false
	for _, p := range plans {
		for _, s := range p.ServerSet() {
			if s == rec.To {
				sawReplica = true
			}
		}
	}
	if !sawReplica {
		t.Fatalf("replica %s must appear as an alternative source", rec.To)
	}
	// The decisive benefit: the workload survives the hot server going
	// down — impossible before replication.
	sc.Servers[rec.From].SetDown(true)
	q.ProbeNow()
	after, err := sc.II.Query(skewQuery)
	if err != nil {
		t.Fatalf("replica must carry the workload after %s dies: %v", rec.From, err)
	}
	if after.Plan.Fragments[0].ServerID == rec.From {
		t.Fatal("down server still routed to")
	}
	if before.Rel.Rows[0][0].Int() != after.Rel.Rows[0][0].Int() {
		t.Fatal("replica answers differ")
	}
}

func TestAdvisorQuietWhenNoHotServer(t *testing.T) {
	sc, q := buildSkewed(t)
	for i := 0; i < 3; i++ {
		if _, err := sc.II.Query(skewQuery); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	recs := q.AdvisePlacement(sc.Catalog, sc.II.Journal().Winners.Tail(0), 0)
	if len(recs) != 0 {
		t.Fatalf("calm system should produce no recommendations: %+v", recs)
	}
}

func TestAdvisorQuietWhenCoolReplicaExists(t *testing.T) {
	sc, q := build(t) // fully-replicated scenario
	sc.Servers["S3"].SetLoadLevel(1)
	for i := 0; i < 5; i++ {
		if _, err := sc.II.Query(scanQuery); err != nil {
			t.Fatal(err)
		}
	}
	q.PublishNow()
	recs := q.AdvisePlacement(sc.Catalog, sc.II.Journal().Winners.Tail(0), 0)
	for _, r := range recs {
		t.Fatalf("fully-replicated nicknames need no recommendations: %+v", r)
	}
}

func TestAdvisorEmptyHistory(t *testing.T) {
	sc, q := buildSkewed(t)
	if recs := q.AdvisePlacement(sc.Catalog, nil, 0); recs != nil {
		t.Fatalf("no history: %+v", recs)
	}
}

func TestReplicateTableValidation(t *testing.T) {
	sc, _ := buildSkewed(t)
	if err := scenario.ReplicateTable(sc, "ghost", "S3", "S1"); err == nil {
		t.Fatal("unknown nickname")
	}
	if err := scenario.ReplicateTable(sc, "lineitem", "S1", "S2"); err == nil {
		t.Fatal("source does not host")
	}
	if err := scenario.ReplicateTable(sc, "lineitem", "S3", "S9"); err == nil {
		t.Fatal("unknown target")
	}
	if err := scenario.ReplicateTable(sc, "orders", "S1", "S2"); err == nil {
		t.Fatal("target already hosts orders")
	}
	// A valid replication copies rows and indexes.
	if err := scenario.ReplicateTable(sc, "lineitem", "S3", "S1"); err != nil {
		t.Fatal(err)
	}
	if sc.Servers["S1"].Table("lineitem") == nil {
		t.Fatal("table not copied")
	}
	src := sc.Servers["S3"].Table("lineitem").View()
	defer src.Close()
	dst := sc.Servers["S1"].Table("lineitem").View()
	defer dst.Close()
	if dst.RowCount() != src.RowCount() {
		t.Fatal("rows not copied")
	}
	if len(dst.Indexes()) != len(src.Indexes()) {
		t.Fatal("indexes not copied")
	}
}
