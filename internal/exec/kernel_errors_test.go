package exec

import (
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// errorRel is 20 rows of (i, a, b): i is the row number, a is "x" but for
// the INTEGER 7 at row 10, b is "y" but for the DOUBLE 5.5 at row 3. So
// LENGTH(a) fails at row 10 and UPPER(b) at row 3, each with its own text.
func errorRel(n int) *sqltypes.Relation {
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "a", Type: sqltypes.KindString},
		sqltypes.Column{Name: "b", Type: sqltypes.KindString}))
	for r := range n {
		row := sqltypes.Row{sqltypes.NewInt(int64(r)), sqltypes.NewString("x"), sqltypes.NewString("y")}
		if r == 10 {
			row[1] = sqltypes.NewInt(7)
		}
		if r == 3 {
			row[2] = sqltypes.NewFloat(5.5)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// TestColumnarKernelsRaiseTheRowKernelsError runs each columnar kernel alone
// (the Filter's predicate, the projection, the sort, the fold, the hash
// probe, the nested-loop and the index join) and requires the outcome of the
// operator's row kernel over the same input: its error, with its text, or
// none. A case gives a predicate p and two expressions, a and b, which a
// kernel with several expressions evaluates in order: the project items and
// the sort keys a then b, the group key a and the argument of SUM(b), the
// hash and index joins' streamed key a and residual p.
func TestColumnarKernelsRaiseTheRowKernelsError(t *testing.T) {
	fn := func(name string, args ...sqlparser.Expr) sqlparser.Expr {
		return &sqlparser.FuncExpr{Name: name, Args: args}
	}
	bin := func(op sqlparser.BinaryOp, l, r sqlparser.Expr) sqlparser.Expr {
		return &sqlparser.BinaryExpr{Op: op, Left: l, Right: r}
	}
	str := func(s string) sqlparser.Expr { return &sqlparser.Literal{Val: sqltypes.NewString(s)} }
	lenA, upperB := fn("LENGTH", colRef("a")), fn("UPPER", colRef("b"))
	nosuch := colRef("nosuch")
	cases := []struct {
		name    string
		rows    int
		p, a, b sqlparser.Expr
		fails   bool // the row kernels fail
	}{
		// The left operand fails at row 10, the right at row 3: row 3's.
		{"left fails later than right", 20, bin(sqlparser.OpEq, lenA, fn("LENGTH", upperB)), lenA, upperB, true},
		{"unresolvable column over rows", 20, bin(sqlparser.OpEq, nosuch, intLit(1)), nosuch, nosuch, true},
		{"unresolvable column over no row", 0, bin(sqlparser.OpEq, nosuch, intLit(1)), nosuch, nosuch, false},
		// The failing operands are never reached: behind FALSE AND, TRUE OR,
		// a COALESCE argument that is not NULL, a matched IN item and a NULL
		// function argument.
		{"behind FALSE AND", 20,
			bin(sqlparser.OpAnd, &sqlparser.Literal{Val: sqltypes.NewBool(false)}, bin(sqlparser.OpEq, upperB, str("Y"))),
			fn("COALESCE", intLit(1), lenA),
			&sqlparser.InExpr{Needle: colRef("i"), List: []sqlparser.Expr{colRef("i"), upperB}}, false},
		{"behind TRUE OR", 20,
			bin(sqlparser.OpOr, bin(sqlparser.OpGe, colRef("i"), intLit(0)), bin(sqlparser.OpEq, upperB, str("Y"))),
			fn("MOD", &sqlparser.Literal{Val: sqltypes.Null}, lenA),
			fn("COALESCE", colRef("b"), fn("LENGTH", colRef("i"))), false},
	}
	// The hashed side and the index join's inner table: keys 0..4.
	keys := intKeys("k", 5, func(i int) int64 { return int64(i) })
	inner, idx := indexedTable(t, "inner", keys, 0, storage.IndexHash)
	one := intKeys("o", 1, func(int) int64 { return 1 })
	for _, c := range cases {
		rel := errorRel(c.rows)
		in := colbatch.FromRelation(rel)
		values := &Values{Rel: rel}
		hj := &HashJoin{Build: &Values{Rel: keys}, Probe: values, BuildKey: colRef("k"), ProbeKey: c.a, Residual: c.p}
		nl := &NestedLoopJoin{Outer: values, Inner: &Values{Rel: one}, Pred: c.p}
		inl := &IndexNLJoin{Outer: values, Inner: inner, Index: idx, InnerAs: "n", OuterKey: c.a, Residual: c.p}
		items := []sqlparser.SelectItem{{Expr: c.a, Alias: "x"}, {Expr: c.b, Alias: "y"}}
		order := []sqlparser.OrderItem{{Expr: c.a}, {Expr: c.b}}
		groupBy, aggs := []sqlparser.Expr{c.a}, []*sqlparser.AggExpr{{Func: sqlparser.AggSum, Arg: c.b}}
		for _, k := range []struct {
			kernel   string
			row      Operator
			columnar func() error
		}{
			{"filter", &Filter{Input: values, Pred: c.p}, func() error {
				_, err := (&predicate{}).selection(c.p, in)
				return err
			}},
			{"project", &Project{Input: values, Items: items}, func() error {
				_, err := (&projection{}).apply(items, in)
				return err
			}},
			{"sort", &Sort{Input: values, Keys: order}, func() error {
				_, err := sortBatch(order, in)
				return err
			}},
			{"aggregate", &Aggregate{Input: values, GroupBy: groupBy, Aggs: aggs}, func() error {
				return foldBatch(newAggFolder(groupBy, aggs), in)
			}},
			{"hash join", hj, func() error {
				_, err := newHashJoinTable(hj, colbatch.FromRelation(keys)).probeBatch(in)
				return err
			}},
			{"nested-loop join", nl, func() error {
				_, err := nestedLoopBatch(nl, in, colbatch.FromRelation(one))
				return err
			}},
			{"index join", inl, func() error {
				_, err := indexNLJoinBatch(inl, in, &Context{})
				return err
			}},
		} {
			_, want := k.row.Execute(&Context{})
			if (want != nil) != c.fails {
				t.Fatalf("%s, %s: the row kernel's error is %v", c.name, k.kernel, want)
			}
			if got := k.columnar(); !sameError(want, got) {
				t.Errorf("%s, %s: columnar error %v, row kernel's %v", c.name, k.kernel, got, want)
			}
		}
	}

	// A hashed key that fails: the first probe returns the row kernel's
	// error, which it raises once both inputs have run.
	rel := errorRel(20)
	hj := &HashJoin{Build: &Values{Rel: keys}, Probe: &Values{Rel: rel}, BuildKey: fn("LOWER", colRef("k")), ProbeKey: colRef("i")}
	_, want := hj.Execute(&Context{})
	if want == nil {
		t.Fatal("the row kernel hashed LOWER of an integer")
	}
	for _, buildRight := range []bool{false, true} {
		j := *hj
		hashed, streamed := colbatch.FromRelation(keys), colbatch.FromRelation(rel)
		if j.BuildRight = buildRight; buildRight {
			j.Build, j.Probe, j.BuildKey, j.ProbeKey = j.Probe, j.Build, j.ProbeKey, j.BuildKey
		}
		if _, got := newHashJoinTable(&j, hashed).probeBatch(streamed); !sameError(want, got) {
			t.Errorf("failing hashed key, build right %v: columnar error %v, row kernel's %v", buildRight, got, want)
		}
	}
}
