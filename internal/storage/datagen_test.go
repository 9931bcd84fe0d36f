package storage

import (
	"testing"

	"repro/internal/sqltypes"
)

func TestGenerateDeterministicReplicas(t *testing.T) {
	gens := SampleSchema(100) // tiny for test speed
	g := gens[0]
	t1, err := g.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	if read(t1, View.RowCount) != read(t2, View.RowCount) {
		t.Fatal("replica row counts differ")
	}
	r1, r2 := read(t1, View.Rows)[17], read(t2, View.Rows)[17]
	for i := range r1 {
		if sqltypes.Compare(r1[i], r2[i]) != 0 {
			t.Fatalf("replicas differ at row 17 col %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	t3, err := g.Generate(43)
	if err != nil {
		t.Fatal(err)
	}
	r3 := read(t3, View.Rows)[17]
	same := true
	for i := range r1 {
		// column 0 is the sequential PK — identical by construction
		if i == 0 {
			continue
		}
		if sqltypes.Compare(r1[i], r3[i]) != 0 {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should generally produce different data")
	}
}

func TestSampleSchemaShape(t *testing.T) {
	gens := SampleSchema(1)
	byName := map[string]TableGen{}
	for _, g := range gens {
		byName[g.Name] = g
	}
	if byName["orders"].Rows != 100000 {
		t.Fatalf("orders rows: %d (paper: on the order of 100000s)", byName["orders"].Rows)
	}
	if byName["parts"].Rows != 1000 {
		t.Fatalf("parts rows: %d (paper: on the order of 1000s)", byName["parts"].Rows)
	}
	if byName["customer"].Rows != 1000 {
		t.Fatalf("customer rows: %d", byName["customer"].Rows)
	}
	// Scale floor behaviour.
	tiny := SampleSchema(1000000)
	for _, g := range tiny {
		if g.Rows < 5 {
			t.Fatalf("%s scaled below floor: %d", g.Name, g.Rows)
		}
	}
	if got := SampleSchema(0); got[0].Rows != 100000 {
		t.Fatal("scale < 1 should clamp to 1")
	}
}

func TestGenerateBuildsIndexes(t *testing.T) {
	g := SampleSchema(100)[1] // lineitem
	tab, err := g.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	indexes := read(tab, View.Indexes)
	if IndexOnColumn(indexes, "l_orderkey") == nil {
		t.Fatal("lineitem_ord index missing")
	}
	if IndexOnColumn(indexes, "l_id") == nil {
		t.Fatal("lineitem_pk index missing")
	}
}

func TestGeneratorPrimitives(t *testing.T) {
	g := TableGen{
		Name: "g",
		Rows: 50,
		Columns: []ColumnGen{
			{Name: "pk", Type: sqltypes.KindInt, Gen: SeqInt()},
			{Name: "u", Type: sqltypes.KindInt, Gen: UniformInt(10)},
			{Name: "f", Type: sqltypes.KindFloat, Gen: UniformFloat(5, 6)},
			{Name: "c", Type: sqltypes.KindString, Gen: Categorical("a", "b")},
			{Name: "p", Type: sqltypes.KindString, Gen: PaddedString("row")},
		},
	}
	tab, err := g.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	rows := read(tab, View.Rows)
	for _, r := range rows {
		if r[1].Int() < 0 || r[1].Int() >= 10 {
			t.Fatalf("uniform int out of range: %v", r[1])
		}
		if r[2].Float() < 5 || r[2].Float() >= 6 {
			t.Fatalf("uniform float out of range: %v", r[2])
		}
		if s := r[3].Str(); s != "a" && s != "b" {
			t.Fatalf("categorical: %v", r[3])
		}
	}
	if r0 := rows[0]; r0[4].Str() != "row-000000" {
		t.Fatalf("padded string: %v", r0[4])
	}
}
