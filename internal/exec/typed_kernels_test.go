package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// The typed kernels read a selected cell where it lies and compare, compute
// and fold typed payloads without boxing them. This file's fuzz target holds
// them to the row evaluator on the cells where typed and boxed arithmetic
// could part: NaN, ±0, ints and floats that are twins only through float64,
// NULLs, strings and bools, and columns of one kind next to Mixed and
// all-NULL ones.

// Column kinds the fuzz target draws from.
const (
	typedColInt = iota
	typedColFloat
	typedColString
	typedColBool
	typedColMixed // ints and floats
	typedColNull
	typedColKinds
)

var (
	typedInts   = []int64{0, 1, -1, 2, 3, 7, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	typedFloats = []float64{0, math.Copysign(0, -1), 0.5, -2.5, 3, 7, 1 << 53, -(1 << 53), math.NaN(), math.Inf(1), math.Inf(-1)}
	typedStrs   = []string{"", "a", "ab", "b", "Z"}
)

// typedCell draws a cell of a column of the given kind.
func typedCell(rng *rand.Rand, kind int, nullFrac float64) sqltypes.Value {
	if kind == typedColNull || rng.Float64() < nullFrac {
		return sqltypes.Null
	}
	switch kind {
	case typedColInt:
		return sqltypes.NewInt(typedInts[rng.Intn(len(typedInts))])
	case typedColFloat:
		return sqltypes.NewFloat(typedFloats[rng.Intn(len(typedFloats))])
	case typedColString:
		return sqltypes.NewString(typedStrs[rng.Intn(len(typedStrs))])
	case typedColBool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	default:
		return typedCell(rng, rng.Intn(typedColString), 0)
	}
}

// typedRel is a relation of four columns, c0..c3, of random kinds; each
// column is NULL-free half of the time, so the branch-hoisted loops run.
func typedRel(rng *rand.Rand, n int) *sqltypes.Relation {
	kinds := make([]int, 4)
	cols := make([]sqltypes.Column, len(kinds))
	for i := range kinds {
		kinds[i] = rng.Intn(typedColKinds)
		cols[i] = sqltypes.Column{Name: fmt.Sprintf("c%d", i), Type: sqltypes.KindFloat}
	}
	nullFrac := make([]float64, len(kinds))
	for i := range nullFrac {
		if rng.Intn(2) == 0 {
			nullFrac[i] = 0.2
		}
	}
	rel := sqltypes.NewRelation(sqltypes.NewSchema(cols...))
	for r := 0; r < n; r++ {
		row := make(sqltypes.Row, len(kinds))
		for i, k := range kinds {
			row[i] = typedCell(rng, k, nullFrac[i])
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// randomCut is rel's rows as a window at a random offset or as a selection
// with random rows between the selected ones; the rows around them are drawn
// from rel, so the cut's columns have rel's kinds.
func randomCut(rng *rand.Rand, rel *sqltypes.Relation) map[string]*colbatch.Batch {
	other := func() sqltypes.Row { return rel.Rows[rng.Intn(len(rel.Rows))] }
	super := sqltypes.NewRelation(rel.Schema)
	if rng.Intn(2) == 0 {
		lo := 1 + rng.Intn(4)
		for range lo {
			super.Rows = append(super.Rows, other())
		}
		super.Rows = append(super.Rows, rel.Rows...)
		for range rng.Intn(3) {
			super.Rows = append(super.Rows, other())
		}
		return map[string]*colbatch.Batch{"window": colbatch.FromRelation(super).Slice(lo, lo+len(rel.Rows))}
	}
	var sel []int32
	for _, row := range rel.Rows {
		for rng.Intn(2) == 0 {
			super.Rows = append(super.Rows, other())
		}
		sel = append(sel, int32(len(super.Rows)))
		super.Rows = append(super.Rows, row)
	}
	return map[string]*colbatch.Batch{"selection": colbatch.FromRelation(super).Select(sel)}
}

// typedOperand is a column of rel or a literal of a random kind.
func typedOperand(rng *rand.Rand) sqlparser.Expr {
	if rng.Intn(3) != 0 {
		return colRef(fmt.Sprintf("c%d", rng.Intn(4)))
	}
	return &sqlparser.Literal{Val: typedCell(rng, rng.Intn(typedColMixed), 0.1)}
}

// typedExpr is a comparison, an arithmetic expression, a BETWEEN or NOT
// BETWEEN, a scalar function, or a short circuit (shortCircuit), over
// operands that are columns, literals or, at depth > 0, such expressions
// themselves (vectors of a kernel's own).
func typedExpr(rng *rand.Rand, depth int) sqlparser.Expr {
	arg := func() sqlparser.Expr {
		if depth > 0 && rng.Intn(4) == 0 {
			return typedExpr(rng, depth-1)
		}
		return typedOperand(rng)
	}
	ops := []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
	switch rng.Intn(5) {
	case 0:
		return &sqlparser.BinaryExpr{Op: ops[rng.Intn(len(ops))], Left: arg(), Right: arg()}
	case 4:
		return shortCircuit(rng, arg, &sqlparser.BinaryExpr{Op: ops[rng.Intn(len(ops))], Left: arg(), Right: arg()})
	case 1:
		ops := []sqlparser.BinaryOp{sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv}
		return &sqlparser.BinaryExpr{Op: ops[rng.Intn(len(ops))], Left: arg(), Right: arg()}
	case 2:
		return &sqlparser.BetweenExpr{Subject: arg(), Lo: arg(), Hi: arg(), Negate: rng.Intn(2) == 0}
	default:
		switch name := []string{"ABS", "ROUND", "FLOOR", "CEIL", "MOD", "LENGTH", "UPPER"}[rng.Intn(7)]; name {
		case "MOD":
			return &sqlparser.FuncExpr{Name: name, Args: []sqlparser.Expr{arg(), arg()}}
		default:
			return &sqlparser.FuncExpr{Name: name, Args: []sqlparser.Expr{arg()}}
		}
	}
}

// shortCircuit is an AND or OR after the comparison cmp, an IN, a COALESCE or
// a MOD whose last operand fails wherever it runs on a cell that is not NULL:
// UPPER or LIKE of a cell that is not a string, or 's' * a cell. The row
// evaluator reaches that operand only on the rows the short circuit leaves
// open (cmp undecided, the needle unmatched, the first argument NULL or not),
// and the vectorized one must fail on exactly those.
func shortCircuit(rng *rand.Rand, arg func() sqlparser.Expr, cmp sqlparser.Expr) sqlparser.Expr {
	var failing sqlparser.Expr
	switch rng.Intn(3) {
	case 0:
		failing = &sqlparser.FuncExpr{Name: "UPPER", Args: []sqlparser.Expr{arg()}}
	case 1:
		failing = &sqlparser.LikeExpr{Subject: arg(), Pattern: "a%"}
	default:
		failing = &sqlparser.BinaryExpr{Op: sqlparser.OpMul, Left: &sqlparser.Literal{Val: sqltypes.NewString("s")}, Right: arg()}
	}
	switch rng.Intn(5) {
	case 0:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, Left: cmp, Right: failing}
	case 1:
		return &sqlparser.BinaryExpr{Op: sqlparser.OpOr, Left: cmp, Right: failing}
	case 2:
		return &sqlparser.InExpr{Needle: arg(), List: []sqlparser.Expr{arg(), failing}, Negate: rng.Intn(2) == 0}
	case 3:
		return &sqlparser.FuncExpr{Name: "COALESCE", Args: []sqlparser.Expr{arg(), failing}}
	default:
		return &sqlparser.FuncExpr{Name: "MOD", Args: []sqlparser.Expr{arg(), failing}}
	}
}

// randomBatches cuts rel's rows into consecutive parts, each a random
// window or selection (randomCut).
func randomBatches(rng *rand.Rand, rel *sqltypes.Relation) []*colbatch.Batch {
	var out []*colbatch.Batch
	for rows := rel.Rows; len(rows) > 0; {
		n := 1 + rng.Intn(len(rows))
		part := sqltypes.NewRelation(rel.Schema)
		part.Rows = rows[:n]
		for _, b := range randomCut(rng, part) {
			out = append(out, b)
		}
		rows = rows[n:]
	}
	return out
}

// FuzzTypedKernelsMatchRowEval: over random typed columns (NULLs, NaN, ±0,
// ints and floats that are twins through float64, strings, bools, Mixed and
// all-NULL columns) cut into a random window or selection, a random
// comparison, arithmetic expression, BETWEEN or NOT BETWEEN, scalar function
// or short circuit evaluates to the row evaluator's values cell by cell, or
// fails with its error, and a GROUP BY with SUM, COUNT, MIN and MAX over
// random batches folds to the row kernel's groups or fails with its error.
func FuzzTypedKernelsMatchRowEval(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, uint8(seed))
	}
	// Short circuits (shortCircuit) whose failing operand fails on a row the
	// row evaluator never takes it to, which answers without an error.
	for _, c := range []struct {
		seed  int64
		shape uint8
	}{
		{110, 0}, {84, 0}, {533, 1}, // AND before 's' * c3, c0 LIKE 'a%', UPPER(c0)
		{236, 1}, {84, 1}, {288, 1}, // OR before 's' * 'Z', a LIKE, UPPER(c1)
		{134, 1}, {1113, 1}, {140, 0}, // IN before 's' * c0, FALSE LIKE 'a%', UPPER(c2)
		{160, 0}, {39, 0}, {262, 0}, // COALESCE before 's' * c0, -2.5 LIKE 'a%', UPPER(c3)
		{395, 1}, {624, 1}, {2, 0}, // MOD before 's' * c1, a LIKE, UPPER(c1)
	} {
		f.Add(c.seed, c.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		rel := typedRel(rng, 1+rng.Intn(40))
		label := fmt.Sprintf("seed %d shape %d", seed, shape)
		if shape%4 != 3 {
			e := typedExpr(rng, int(shape%4))
			checkTypedKernel(t, label, rel, randomCut(rng, rel), e)
			return
		}
		groupBy := make([]sqlparser.Expr, 1+rng.Intn(2))
		for i := range groupBy {
			groupBy[i] = typedOperand(rng)
			if rng.Intn(4) == 0 {
				groupBy[i] = typedExpr(rng, 0)
			}
		}
		funcs := []sqlparser.AggFunc{sqlparser.AggSum, sqlparser.AggCount, sqlparser.AggMin, sqlparser.AggMax}
		aggs := make([]*sqlparser.AggExpr, 1+rng.Intn(3))
		for i := range aggs {
			aggs[i] = &sqlparser.AggExpr{Func: funcs[rng.Intn(len(funcs))], Arg: typedOperand(rng)}
			switch rng.Intn(4) {
			case 0:
				aggs[i].Arg = typedExpr(rng, 0)
			case 1:
				if aggs[i].Func == sqlparser.AggCount {
					aggs[i].Arg = nil // COUNT(*)
				}
			}
		}
		checkTypedFold(t, label, rel, randomBatches(rng, rel), groupBy, aggs)
	})
}
