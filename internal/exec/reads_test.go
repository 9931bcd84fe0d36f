package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// readsRelation builds n rows of a five-column relation qualified by table:
// an integer key drawn from 0..keys-1, a float, a string, a bool and an
// integer, every payload column NULL one time in five.
func readsRelation(rng *rand.Rand, table, prefix string, n, keys int) *sqltypes.Relation {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool, sqltypes.KindInt}
	names := []string{"key", "price", "note", "flag", "qty"}
	cols := make([]sqltypes.Column, len(kinds))
	for i := range cols {
		cols[i] = sqltypes.Column{Table: table, Name: prefix + names[i], Type: kinds[i]}
	}
	rel := sqltypes.NewRelation(sqltypes.NewSchema(cols...))
	for r := 0; r < n; r++ {
		row := sqltypes.Row{
			sqltypes.NewInt(int64(rng.Intn(keys))),
			sqltypes.NewFloat(float64(rng.Intn(1000)) / 8),
			sqltypes.NewString(fmt.Sprintf("note %d", rng.Intn(50))),
			sqltypes.NewBool(rng.Intn(2) == 0),
			sqltypes.NewInt(int64(rng.Intn(9))),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(5) == 0 {
				row[c] = sqltypes.Null
			}
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// payloadBytes is what a gathered column holds in cells and null bitmap.
func payloadBytes(c *colbatch.Column) int {
	return 8*len(c.Ints) + 8*len(c.Floats) + int(unsafe.Sizeof(""))*len(c.Strs) + len(c.Bools) + len(c.Nulls) +
		int(unsafe.Sizeof(sqltypes.Value{}))*len(c.Mixed)
}

// cellBytes bounds one typed cell of a column of the kind, null flag included.
func cellBytes(k sqltypes.Kind) int {
	switch k {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 8 + 1
	case sqltypes.KindString:
		return int(unsafe.Sizeof("")) + 1
	default:
		return 1 + 1
	}
}

// joinUnder returns the topmost join of a finished plan.
func joinUnder(op Operator) Operator {
	for op != nil {
		switch op.(type) {
		case *HashJoin, *IndexNLJoin, *NestedLoopJoin:
			return op
		}
		op = inputOf(op)
	}
	return nil
}

// TestJoinGathersOnlyReadColumns runs each join kernel under a QT1-shaped tail
// (SUM of one column and COUNT(*) over an equijoin, a filter pushed onto the
// outer side) as the planners finish it. The join's unread output columns
// must be all-NULL placeholders, the bytes it gathers per execution must fit
// in the read columns' width, and the plan must still pass the oracle.
func TestJoinGathersOnlyReadColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orders := readsRelation(rng, "o", "o_", 300, 200)
	items := readsRelation(rng, "l", "l_", 900, 200)
	leaves := func() map[string]Operator {
		return map[string]Operator{"o": &Values{Rel: orders}, "l": &Values{Rel: items}}
	}
	build := func(sql string) Operator {
		root, err := BuildPlan(sqlparser.MustParse(sql), leaves())
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	const qt1 = "SELECT SUM(l.l_price), COUNT(*) FROM o JOIN l ON o.o_key = l.l_key WHERE o.o_price > 20"

	hash := build(qt1)
	hashRight := build(qt1)
	joinUnder(hashRight).(*HashJoin).BuildRight = true

	tab := storage.NewTable("items", items.Schema)
	if err := tab.Append(items.Rows...); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.CreateIndex("items_key", "l_key", storage.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	outer := &Filter{Input: &Values{Rel: orders}, Pred: sqlparser.MustParse("SELECT * FROM o WHERE o.o_price > 20").Where}
	inl := &IndexNLJoin{Outer: outer, Inner: tab, Index: ix, InnerAs: "l", OuterKey: &sqlparser.ColumnRef{Table: "o", Name: "o_key"}}
	top, err := PlanTop(sqlparser.MustParse(qt1), inl.Schema())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		label string
		root  Operator
		read  []string // the join's output columns the tail (and its predicate) reads
	}{
		{"hash join", hash, []string{"l_price"}},
		{"hash join, right build", hashRight, []string{"l_price"}},
		{"index nested-loop join", top.Build(inl), []string{"l_price"}},
		{"nested-loop join", build("SELECT SUM(l.l_price), COUNT(*) FROM o JOIN l ON o.o_key < l.l_key WHERE o.o_price > 100 AND l.l_qty = 3"),
			[]string{"l_price", "o_key", "l_key"}},
	} {
		join := joinUnder(tc.root)
		if join == nil {
			t.Fatalf("%s: no join in\n%s", tc.label, ExplainTree(tc.root))
		}
		checkOracle(t, tc.label, tc.root)

		out, err := ExecuteVectorized(join, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: the join matched no rows", tc.label)
		}
		read := map[string]bool{}
		for _, name := range tc.read {
			read[name] = true
		}
		gathered, bound := 0, 0
		for i, c := range out.Cols {
			col := out.Schema.Columns[i]
			gathered += payloadBytes(c)
			if read[col.Name] {
				bound += out.Len() * cellBytes(col.Type)
				continue
			}
			if c.Kind != sqltypes.KindNull || payloadBytes(c) != 0 {
				t.Errorf("%s: unread column %s gathered as kind %v with %d payload bytes, want an all-NULL placeholder",
					tc.label, col.QualifiedName(), c.Kind, payloadBytes(c))
			}
		}
		if gathered > bound {
			t.Errorf("%s: gathered %d bytes over %d rows; the read columns %v hold at most %d", tc.label, gathered, out.Len(), tc.read, bound)
		}
	}
}
