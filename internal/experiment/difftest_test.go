package experiment

import (
	"math/rand"
	"testing"

	"repro/internal/qcc"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

// TestDifferentialFederatedVsGroundTruth runs randomly-generated queries
// through the full federation (decomposition, remote planning, network,
// merge) and compares every result against a direct, unoptimized execution
// on a single server. Any divergence is a correctness bug in decomposition,
// plan enumeration, calibration plumbing or merging.
func TestDifferentialFederatedVsGroundTruth(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2025))
	for i := 0; i < 120; i++ {
		sql := RandomQuery(r)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatalf("query %d failed: %v\n%s", i, err, sql)
		}
		want, err := GroundTruth(sc, "S1", sql)
		if err != nil {
			t.Fatalf("ground truth %d failed: %v\n%s", i, err, sql)
		}
		ordered := false // ORDER BY suffixes exist, but multiset compare suffices
		if diff := RelationsEquivalent(res.Rel, want, ordered); diff != "" {
			t.Fatalf("query %d diverged: %s\n%s", i, diff, sql)
		}
	}
}

// TestDifferentialWithQCCAndLoad repeats the differential run with QCC
// attached, servers under asymmetric load, and load balancing active:
// routing decisions must never change ANSWERS, only placement.
func TestDifferentialWithQCCAndLoad(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	qcc.Attach(qcc.Config{
		Clock:          sc.Clock,
		MW:             sc.MW,
		Routing:        router.Policy{Mode: router.Global, Closeness: 1.0},
		DisableDaemons: true,
	}, sc.II)
	sc.Servers["S3"].SetLoadLevel(1)
	sc.Servers["S2"].SetLoadLevel(0.4)
	if err := CalibrationSweep(sc, 0); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		sql := RandomQuery(r)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatalf("query %d failed: %v\n%s", i, err, sql)
		}
		want, err := GroundTruth(sc, "S1", sql)
		if err != nil {
			t.Fatal(err)
		}
		if diff := RelationsEquivalent(res.Rel, want, false); diff != "" {
			t.Fatalf("query %d diverged under QCC: %s\n%s", i, diff, sql)
		}
	}
}

// TestDifferentialCrossSource verifies the merge path: in the replica-pair
// scenario every join crosses sources, so decomposition and II-side merging
// carry the whole query.
func TestDifferentialCrossSource(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Build a co-located oracle: one table set union on a scratch scenario.
	oracle, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		sql := RandomQuery(r)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatalf("query %d failed: %v\n%s", i, err, sql)
		}
		want, err := GroundTruth(oracle, "S1", sql)
		if err != nil {
			t.Fatal(err)
		}
		if diff := RelationsEquivalent(res.Rel, want, false); diff != "" {
			t.Fatalf("cross-source query %d diverged: %s\n%s", i, diff, sql)
		}
	}
}

// TestWorkloadTypesMatchGroundTruth pins the four QT types themselves.
func TestWorkloadTypesMatchGroundTruth(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, qt := range workload.Types() {
		for i := 0; i < 3; i++ {
			sql := qt.Make(i)
			res, err := sc.II.Query(sql)
			if err != nil {
				t.Fatalf("%s/%d: %v", qt.Name, i, err)
			}
			want, err := GroundTruth(sc, "S2", sql)
			if err != nil {
				t.Fatal(err)
			}
			if diff := RelationsEquivalent(res.Rel, want, false); diff != "" {
				t.Fatalf("%s/%d diverged: %s", qt.Name, i, diff)
			}
		}
	}
}

func TestRelationsEquivalentDiagnostics(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "x", Type: sqltypes.KindInt})
	a := sqltypes.NewRelation(schema)
	b := sqltypes.NewRelation(schema)
	a.Rows = []sqltypes.Row{{sqltypes.NewInt(1)}}
	if diff := RelationsEquivalent(a, b, false); diff == "" {
		t.Fatal("cardinality diff must register")
	}
	b.Rows = []sqltypes.Row{{sqltypes.NewInt(2)}}
	if diff := RelationsEquivalent(a, b, false); diff == "" {
		t.Fatal("value diff must register")
	}
	b.Rows = []sqltypes.Row{{sqltypes.NewInt(1)}}
	if diff := RelationsEquivalent(a, b, false); diff != "" {
		t.Fatalf("equal relations: %s", diff)
	}
	// Unordered compare ignores permutation.
	a.Rows = []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}
	b.Rows = []sqltypes.Row{{sqltypes.NewInt(2)}, {sqltypes.NewInt(1)}}
	if diff := RelationsEquivalent(a, b, false); diff != "" {
		t.Fatalf("permutation should pass unordered: %s", diff)
	}
	if diff := RelationsEquivalent(a, b, true); diff == "" {
		t.Fatal("ordered compare must catch permutation")
	}
	// Float rounding tolerance.
	fs := sqltypes.NewSchema(sqltypes.Column{Name: "f", Type: sqltypes.KindFloat})
	fa, fb := sqltypes.NewRelation(fs), sqltypes.NewRelation(fs)
	fa.Rows = []sqltypes.Row{{sqltypes.NewFloat(1.00001)}}
	fb.Rows = []sqltypes.Row{{sqltypes.NewFloat(1.000011)}}
	if diff := RelationsEquivalent(fa, fb, false); diff != "" {
		t.Fatalf("float tolerance: %s", diff)
	}
}

// TestSchemaArityInvariant: for random queries, the compiled plan's declared
// schema arity always matches the executed result's row arity.
func TestSchemaArityInvariant(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		sql := RandomQuery(r)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatalf("query: %v\n%s", err, sql)
		}
		arity := res.Rel.Schema.Len()
		for _, row := range res.Rel.Rows {
			if len(row) != arity {
				t.Fatalf("row arity %d != schema arity %d\n%s", len(row), arity, sql)
			}
		}
	}
}

// TestRoutingNeverChangesAnswers: in every Table 1 phase the servers stay
// equivalent data sources, so pinning each QT1–QT4 instance to S1, S2 and S3
// in turn returns one answer. Floats compare at RelationsEquivalent's four
// decimals: the last bits of a float SUM still follow the plan's order.
func TestRoutingNeverChangesAnswers(t *testing.T) {
	build := scenario.ThreeServerFederations(scenario.Options{Scale: 20, Seed: 42})
	differ, total := 0, 0
	for _, phase := range workload.Phases() {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.ApplyPhase(sc, phase, 42); err != nil {
			t.Fatal(err)
		}
		for _, item := range workload.UniformMix(10) {
			total++
			var first *sqltypes.Relation
			for _, server := range Servers {
				res, err := queryOn(sc, server, item.SQL)
				if err != nil {
					t.Fatalf("%s on %s: %v\n%s", phase.Name, server, err, item.SQL)
				}
				if first == nil {
					first = res.Rel
					continue
				}
				if diff := RelationsEquivalent(first, res.Rel, false); diff != "" {
					if differ++; differ <= 3 {
						t.Logf("%s: %s and %s differ (%s)\n%s", phase.Name, Servers[0], server, diff, item.SQL)
					}
					break
				}
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d statements return a different answer depending on the route", differ, total)
	}
}
