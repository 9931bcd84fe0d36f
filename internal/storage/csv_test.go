package storage

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

func csvFixture(t *testing.T) *Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindFloat},
		sqltypes.Column{Table: "t", Name: "name", Type: sqltypes.KindString},
		sqltypes.Column{Table: "t", Name: "flag", Type: sqltypes.KindBool},
	)
	tab := NewTable("t", schema)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewFloat(1.5), sqltypes.NewString("plain"), sqltypes.NewBool(true)},
		{sqltypes.NewInt(2), sqltypes.Null, sqltypes.NewString("with,comma"), sqltypes.NewBool(false)},
		{sqltypes.NewInt(3), sqltypes.NewFloat(-0.25), sqltypes.NewString(`quote"inside`), sqltypes.Null},
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCSVRoundTrip(t *testing.T) {
	src := csvFixture(t)
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	srcRows, gotRows := read(src, View.Rows), read(got, View.Rows)
	if len(gotRows) != len(srcRows) {
		t.Fatalf("rows: %d vs %d", len(gotRows), len(srcRows))
	}
	for i, a := range srcRows {
		b := gotRows[i]
		for j := range a {
			if a[j].IsNull() != b[j].IsNull() {
				t.Fatalf("row %d col %d nullness: %v vs %v", i, j, a[j], b[j])
			}
			if !a[j].IsNull() && sqltypes.Compare(a[j], b[j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
	// Schema kinds survive.
	for j, c := range src.Schema().Columns {
		if got.Schema().Columns[j].Type != c.Type {
			t.Fatalf("col %d kind: %v vs %v", j, got.Schema().Columns[j].Type, c.Type)
		}
	}
}

func TestCSVHeaderFormat(t *testing.T) {
	src := csvFixture(t)
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != "id:INT,v:FLOAT,name:STRING,flag:BOOL" {
		t.Fatalf("header: %q", header)
	}
}

func TestReadCSVHandWritten(t *testing.T) {
	in := "pk:INT,label:STRING\n1,alpha\n2,beta\n"
	tab, err := ReadCSV("x", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n := read(tab, View.RowCount); n != 2 {
		t.Fatalf("rows: %d", n)
	}
	r := read(tab, View.Rows)[1]
	if r[0].Int() != 2 || r[1].Str() != "beta" {
		t.Fatalf("row: %v", r)
	}
	// Untyped header defaults to STRING.
	tab, err = ReadCSV("y", strings.NewReader("a,b\nx,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema().Columns[0].Type != sqltypes.KindString {
		t.Fatal("untyped default")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                      // no header
		"a:WEIRD\n1\n",          // unknown type tag
		"a:INT,b:INT\n1\n",      // arity mismatch
		"a:INT\nnot-a-number\n", // bad int
		"a:FLOAT\nxyz\n",        // bad float
		"a:BOOL\nmaybe\n",       // bad bool
	}
	for _, in := range cases {
		if _, err := ReadCSV("bad", strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", in)
		}
	}
}

func TestCSVNullRoundTrip(t *testing.T) {
	in := "a:INT,b:STRING\n,\n5,hello\n"
	tab, err := ReadCSV("n", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r0 := read(tab, View.Rows)[0]
	if !r0[0].IsNull() || !r0[1].IsNull() {
		t.Fatalf("empty fields must be NULL: %v", r0)
	}
}
