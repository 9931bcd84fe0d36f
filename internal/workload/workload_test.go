package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

func TestTypesShape(t *testing.T) {
	types := Types()
	if len(types) != 4 {
		t.Fatalf("types: %d", len(types))
	}
	for _, qt := range types {
		for i := 0; i < 10; i++ {
			sql := qt.Make(i)
			if _, err := sqlparser.Parse(sql); err != nil {
				t.Fatalf("%s instance %d unparseable: %v\n%s", qt.Name, i, err, sql)
			}
		}
		// Instances share a canonical form (QCC generalizes across them).
		a := sqlparser.CanonicalizeSQL(qt.Make(0))
		b := sqlparser.CanonicalizeSQL(qt.Make(7))
		if a != b {
			t.Fatalf("%s instances must share canonical form", qt.Name)
		}
	}
	// QT4 joins three tables.
	stmt := sqlparser.MustParse(types[3].Make(0))
	if len(stmt.Tables()) != 3 {
		t.Fatalf("QT4 tables: %d", len(stmt.Tables()))
	}
	// QT1 and QT3 share their join shape but not their parameters' range.
	if types[0].Make(0) == types[2].Make(0) {
		t.Fatal("QT1 and QT3 must differ")
	}
}

func TestTypeByName(t *testing.T) {
	qt, err := TypeByName("QT2")
	if err != nil || qt.Name != "QT2" {
		t.Fatalf("lookup: %v %v", qt, err)
	}
	if _, err := TypeByName("QT9"); err == nil {
		t.Fatal("unknown type")
	}
}

func TestInstancesAndMix(t *testing.T) {
	qt, _ := TypeByName("QT1")
	inst := Instances(qt, 10)
	if len(inst) != 10 || inst[0] == inst[9] {
		t.Fatalf("instances: %d", len(inst))
	}
	mix := UniformMix(10)
	if len(mix) != 40 {
		t.Fatalf("mix size: %d", len(mix))
	}
	// Uniform distribution across types.
	counts := map[string]int{}
	for _, it := range mix {
		counts[it.Type]++
	}
	for qt, n := range counts {
		if n != 10 {
			t.Fatalf("type %s count %d", qt, n)
		}
	}
	// Interleaved: the first four items cover all four types.
	seen := map[string]bool{}
	for _, it := range mix[:4] {
		seen[it.Type] = true
	}
	if len(seen) != 4 {
		t.Fatalf("mix not interleaved: %v", mix[:4])
	}
}

func TestPhasesMatchTable1(t *testing.T) {
	phases := Phases()
	if len(phases) != 8 {
		t.Fatalf("phases: %d", len(phases))
	}
	// Table 1 rows, B=false L=true, phases 1..8.
	wantS1 := []bool{false, false, false, false, true, true, true, true}
	wantS2 := []bool{false, false, true, true, false, false, true, true}
	wantS3 := []bool{false, true, false, true, false, true, false, true}
	for i, p := range phases {
		if p.Loaded["S1"] != wantS1[i] || p.Loaded["S2"] != wantS2[i] || p.Loaded["S3"] != wantS3[i] {
			t.Fatalf("phase %d loads wrong: %+v", i+1, p.Loaded)
		}
	}
	if phases[0].Label() != "Base/Base/Base" {
		t.Fatalf("label: %s", phases[0].Label())
	}
	if phases[7].Label() != "Load/Load/Load" {
		t.Fatalf("label: %s", phases[7].Label())
	}
	if phases[1].LoadLevel("S3") != HeavyLoad || phases[1].LoadLevel("S1") != 0 {
		t.Fatal("load levels")
	}
	if !strings.HasPrefix(phases[2].Name, "Phase") {
		t.Fatal("names")
	}
}

// TestApplyPhase holds the phase driver to the write rule: a loaded phase
// writes every placement of every nickname alike (one burst each, replicas
// left equal), whichever servers carry the load; a base phase applied after
// it clears the load and writes nothing.
func TestApplyPhase(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		phase  Phase
		writes int64
	}{
		{Phases()[5], burstRows}, // S1 and S3 loaded, S2 calm
		{Phases()[0], 0},
	} {
		before := placementVersions(t, sc)
		if err := ApplyPhase(sc, c.phase, 7); err != nil {
			t.Fatal(err)
		}
		for id, srv := range sc.Servers {
			if srv.LoadLevel() != c.phase.LoadLevel(id) {
				t.Fatalf("%s: %s load %v, want %v", c.phase.Name, id, srv.LoadLevel(), c.phase.LoadLevel(id))
			}
		}
		for at, v := range placementVersions(t, sc) {
			if v-before[at] != c.writes {
				t.Fatalf("%s: %s moved %d versions, want %d", c.phase.Name, at, v-before[at], c.writes)
			}
		}
		for _, name := range sc.Catalog.Names() {
			nick, _ := sc.Catalog.Lookup(name)
			want := tableRows(sc, nick.Placements[0])
			for _, p := range nick.Placements[1:] {
				if !reflect.DeepEqual(tableRows(sc, p), want) {
					t.Fatalf("%s: %s on %s differs from %s on %s", c.phase.Name, name, p.ServerID, name, nick.Placements[0].ServerID)
				}
			}
		}
	}
}

// placementVersions reads the table version at every placement of every
// nickname, keyed "nickname@server".
func placementVersions(t *testing.T, sc *scenario.Scenario) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, name := range sc.Catalog.Names() {
		nick, _ := sc.Catalog.Lookup(name)
		for _, p := range nick.Placements {
			v, ok := sc.Servers[p.ServerID].TableVersions([]string{p.RemoteTable})
			if !ok {
				t.Fatalf("%s has no table %s", p.ServerID, p.RemoteTable)
			}
			out[name+"@"+p.ServerID] = v[p.RemoteTable]
		}
	}
	return out
}

// tableRows materializes the rows of one placement's table.
func tableRows(sc *scenario.Scenario, p catalog.Placement) []sqltypes.Row {
	v := sc.Servers[p.ServerID].Table(p.RemoteTable).View()
	defer v.Close()
	return v.Rows()
}

func TestFixedAssignments(t *testing.T) {
	f1 := FixedAssignment1()
	if f1["QT1"] != "S1" || f1["QT2"] != "S2" || f1["QT3"] != "S1" || f1["QT4"] != "S3" {
		t.Fatalf("fixed1: %v", f1)
	}
	f2 := FixedAssignment2()
	for qt, s := range f2 {
		if s != "S3" {
			t.Fatalf("fixed2[%s]=%s", qt, s)
		}
	}
}

func TestWorkloadQueriesExecute(t *testing.T) {
	sc, err := scenario.BuildThreeServer(scenario.Options{Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, qt := range Types() {
		sql := qt.Make(3)
		res, err := sc.II.Query(sql)
		if err != nil {
			t.Fatalf("%s failed: %v\n%s", qt.Name, err, sql)
		}
		if res.Rel.Cardinality() != 1 {
			t.Fatalf("%s rows: %d", qt.Name, res.Rel.Cardinality())
		}
	}
}
