package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// readsTable stores rel as a table and returns it with the columns a scan of
// it reads.
func readsTable(t *testing.T, rel *sqltypes.Relation) (*storage.Table, []*colbatch.Column) {
	t.Helper()
	tab := storedTable(t, rel.Schema.Columns[0].Table, rel)
	v := tab.View()
	defer v.Close()
	return tab, v.Columns()
}

// TestJoinGathersOnlyReadColumns runs each join kernel under a QT1-shaped tail
// (SUM of one column and COUNT(*) over an equijoin, a filter pushed onto the
// outer side) as the planners finish it: the hash join with the read side
// streamed and, building right, hashed; the index join, whose read side is
// its inner table; and a nested loop whose predicate reads the side its tail
// reads. Every column the tail reads lies on one input, so the join copies no
// cell. Each output batch's read columns must be that input's own columns,
// pointer for pointer, every other column the placeholder, and the join must
// allocate beyond its inputs at most 4 B per output row (the list its output
// reads through) and a fixed 128 KiB: scratch, the hash table of a hashed
// side of 3 000 rows, the outer keys' hashes and a header per output batch,
// of which there are at most 200. A gather of the read float column alone is
// 9 B a row. The plan must still pass the oracle. A hash join whose tail
// reads a column of each side and a nested loop whose predicate reads both
// gather: their read columns must be fresh, their unread ones the placeholder.
func TestJoinGathersOnlyReadColumns(t *testing.T) {
	const small, big, keys = 3000, 100_000, 3000
	rng := rand.New(rand.NewSource(11))
	oSmall, oSmallCols := readsTable(t, readsRelation(rng, "o", "o_", small, keys))
	lBig, lBigCols := readsTable(t, readsRelation(rng, "l", "l_", big, keys))
	oBig, _ := readsTable(t, readsRelation(rng, "o", "o_", big, keys))
	lSmall, lSmallCols := readsTable(t, readsRelation(rng, "l", "l_", small, keys))
	oTiny, oTinyCols := readsTable(t, readsRelation(rng, "o", "o_", 300, keys))
	const qt1 = "SELECT SUM(l.l_price), COUNT(*) FROM o JOIN l ON o.o_key = l.l_key WHERE o.o_price > 20"
	stmt := sqlparser.MustParse(qt1)
	build := func(stmt *sqlparser.SelectStmt, o, l *storage.Table) Operator {
		root, err := BuildPlan(stmt, map[string]Operator{"o": &SeqScan{Table: o, As: "o"}, "l": &SeqScan{Table: l, As: "l"}})
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	tail := func(join Operator) Operator {
		top, err := PlanTop(stmt, join.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return top.Build(join)
	}
	filtered := func(o *storage.Table) Operator {
		return &Filter{Input: &SeqScan{Table: o, As: "o"}, Pred: stmt.Where}
	}

	hash := build(stmt, oSmall, lBig)
	hashRight := build(stmt, oBig, lSmall)
	joinUnder(hashRight).(*HashJoin).BuildRight = true
	ix, err := lBig.CreateIndex("l_key_ix", "l_key", storage.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	inl := tail(&IndexNLJoin{Outer: filtered(oSmall), Inner: lBig, Index: ix, InnerAs: "l", OuterKey: &sqlparser.ColumnRef{Table: "o", Name: "o_key"}})
	nl := tail(&NestedLoopJoin{Outer: filtered(oTiny), Inner: &SeqScan{Table: lSmall, As: "l"},
		Pred: sqlparser.MustParse("SELECT * FROM l WHERE l.l_qty = 3").Where})

	for _, tc := range []struct {
		label string
		root  Operator
		read  []string           // the output columns the tail (and the predicate) reads, all of l
		cols  []*colbatch.Column // l's own columns
	}{
		{"hash join", hash, []string{"l_price"}, lBigCols},
		{"hash join, right build", hashRight, []string{"l_price"}, lSmallCols},
		{"index nested-loop join", inl, []string{"l_price"}, lBigCols},
		{"nested-loop join", nl, []string{"l_price", "l_qty"}, lSmallCols},
	} {
		join := joinUnder(tc.root)
		if join == nil {
			t.Fatalf("%s: no join in\n%s", tc.label, ExplainTree(tc.root))
		}
		checkOracle(t, tc.label, tc.root)

		outs, err := ExecuteBatches(join, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, out := range outs {
			rows += out.Len()
			for i, c := range out.Cols {
				col := out.Schema.Columns[i]
				switch {
				case slices.Contains(tc.read, col.Name):
					if c != tc.cols[i-len(oSmallCols)] {
						t.Fatalf("%s: read column %s is not the input's own column", tc.label, col.QualifiedName())
					}
				case c != colbatch.Placeholder():
					t.Fatalf("%s: unread column %s is kind %v, not the placeholder", tc.label, col.QualifiedName(), c.Kind)
				}
			}
		}
		if rows < 40_000 {
			t.Fatalf("%s: the join yielded %d rows; the bound needs at least 40 000", tc.label, rows)
		}
		batches := func(ops ...Operator) func() {
			return func() {
				for _, op := range ops {
					if _, err := ExecuteBatches(op, &Context{}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		spent := leastAllocated(batches(join)) - leastAllocated(batches(join.Children()...))
		if limit := uint64(4*rows + 128<<10); spent > limit {
			t.Errorf("%s: the join allocated %d B beyond its inputs for %d rows; want at most 4 B a row and 128 KiB (%d)", tc.label, spent, rows, limit)
		}
	}

	// Read on both sides, a join gathers, but only what is read: its read
	// columns are fresh, and every unread one is still the placeholder.
	own := slices.Concat(oSmallCols, oTinyCols, lSmallCols)
	for _, tc := range []struct {
		label string
		root  Operator
		read  []string
	}{
		{"hash join read on both sides", build(sqlparser.MustParse("SELECT SUM(o.o_price), SUM(l.l_price) FROM o JOIN l ON o.o_key = l.l_key"), oSmall, lSmall),
			[]string{"o_price", "l_price"}},
		{"nested-loop join read on both sides", build(sqlparser.MustParse("SELECT SUM(l.l_price), COUNT(*) FROM o JOIN l ON o.o_key < l.l_key WHERE o.o_price > 100 AND l.l_qty = 3"), oTiny, lSmall),
			[]string{"l_price", "o_key", "l_key"}},
	} {
		join := joinUnder(tc.root)
		if join == nil {
			t.Fatalf("%s: no join in\n%s", tc.label, ExplainTree(tc.root))
		}
		checkOracle(t, tc.label, tc.root)
		outs, err := ExecuteBatches(join, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, out := range outs {
			rows += out.Len()
			for i, c := range out.Cols {
				col := out.Schema.Columns[i]
				switch read := slices.Contains(tc.read, col.Name); {
				case read && (c == colbatch.Placeholder() || slices.Contains(own, c)):
					t.Fatalf("%s: read column %s was not gathered", tc.label, col.QualifiedName())
				case !read && c != colbatch.Placeholder():
					t.Fatalf("%s: unread column %s is kind %v, not the placeholder", tc.label, col.QualifiedName(), c.Kind)
				}
			}
		}
		if rows == 0 {
			t.Fatalf("%s: the join matched no rows", tc.label)
		}
	}
}
