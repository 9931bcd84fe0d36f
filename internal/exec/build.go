package exec

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// BuildPlan compiles a SELECT statement into an operator tree over the given
// leaf operators, keyed by effective (aliased) table name. The same builder
// serves both sides of the federation: remote servers pass scans/index scans
// chosen by their local planner; the integrator passes Values operators
// wrapping fragment results.
//
// The builder: pushes single-table conjuncts down onto their leaf, picks
// equi-join keys for hash joins (falling back to nested loops), applies
// remaining predicates, then aggregation, HAVING, projection, DISTINCT,
// ORDER BY and LIMIT.
func BuildPlan(stmt *sqlparser.SelectStmt, leaves map[string]Operator) (Operator, error) {
	tables := stmt.Tables()
	for _, tr := range tables {
		if leaves[tr.EffectiveName()] == nil {
			return nil, fmt.Errorf("exec: no leaf operator for table %q", tr.EffectiveName())
		}
	}

	// Pool every predicate: WHERE conjuncts plus all JOIN ON conjuncts.
	var pool []sqlparser.Expr
	pool = append(pool, sqlparser.SplitConjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		pool = append(pool, sqlparser.SplitConjuncts(j.On)...)
	}
	pool = sqlparser.DropTrueLiterals(pool)

	// Push single-table conjuncts onto leaves.
	planFor := map[string]Operator{}
	for _, tr := range tables {
		planFor[tr.EffectiveName()] = leaves[tr.EffectiveName()]
	}
	var crossTable []sqlparser.Expr
	for _, c := range pool {
		placed := false
		for _, tr := range tables {
			name := tr.EffectiveName()
			if sqlparser.ExprResolves(c, planFor[name].Schema()) {
				planFor[name] = &Filter{Input: planFor[name], Pred: c}
				placed = true
				break
			}
		}
		if !placed {
			crossTable = append(crossTable, c)
		}
	}

	// Join left-to-right in FROM order.
	inputs := make([]Operator, len(tables))
	for i, tr := range tables {
		inputs[i] = planFor[tr.EffectiveName()]
	}
	return BuildTop(stmt, JoinLeftDeep(inputs, crossTable, nil))
}

// JoinLeftDeep joins inputs left to right on the conjuncts in preds: a hash
// join wherever an equi-join key resolves across the two sides (further
// conjuncts resolvable over the joined schema become its residual), a nested
// loop over whatever resolves otherwise; conjuncts that never resolved
// filter the result. BuildPlan calls it with a statement's (filtered) table
// leaves, the integrator with fragment results and the cross-source
// conjuncts. preds is not modified.
//
// finish, when non-nil, holds each input's estimated finish time: a hash join
// then builds on its right input when that is estimated to finish strictly
// before every input already joined on the left (ties keep the left build),
// so the join hashes what arrives first and streams what arrives later.
func JoinLeftDeep(inputs []Operator, preds []sqlparser.Expr, finish []float64) Operator {
	current := inputs[0]
	var leftFinish float64
	if finish != nil {
		leftFinish = finish[0]
	}
	for i, right := range inputs[1:] {
		joined := current.Schema().Concat(right.Schema())
		if lk, rk, rest, ok := ExtractEquiJoinKeys(preds, current.Schema(), right.Schema()); ok {
			var residuals []sqlparser.Expr
			residuals, preds = splitResolvable(rest, joined)
			current = &HashJoin{
				Build:      current,
				Probe:      right,
				BuildKey:   lk,
				ProbeKey:   rk,
				Residual:   sqlparser.JoinConjuncts(residuals),
				BuildRight: finish != nil && finish[i+1] < leftFinish,
			}
		} else {
			var on []sqlparser.Expr
			on, preds = splitResolvable(preds, joined)
			current = &NestedLoopJoin{Outer: current, Inner: right, Pred: sqlparser.JoinConjuncts(on)}
		}
		if finish != nil {
			leftFinish = max(leftFinish, finish[i+1])
		}
	}
	if len(preds) > 0 {
		current = &Filter{Input: current, Pred: sqlparser.JoinConjuncts(preds)}
	}
	return current
}

// splitResolvable partitions conjuncts into those whose every column
// reference resolves in schema and the rest, preserving order.
func splitResolvable(conjuncts []sqlparser.Expr, schema *sqltypes.Schema) (in, out []sqlparser.Expr) {
	for _, c := range conjuncts {
		if sqlparser.ExprResolves(c, schema) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	return in, out
}

// topStepKind enumerates the logical stages of the non-join SELECT tail.
type topStepKind int

const (
	stepAggregate topStepKind = iota
	stepFilter
	stepSort
	stepProject
	stepDistinct
	stepLimit
)

// topStep is one stage of the non-join tail. BuildTop and BuildShardFinal
// stack the same step list, so the sharded and unsharded tails cannot
// diverge on plan shape.
type topStep struct {
	kind    topStepKind
	pred    sqlparser.Expr         // stepFilter (HAVING)
	groupBy []sqlparser.Expr       // stepAggregate
	aggs    []*sqlparser.AggExpr   // stepAggregate
	items   []sqlparser.SelectItem // stepProject
	keys    []sqlparser.OrderItem  // stepSort
	n       int                    // stepLimit
}

// Top is the planned non-join tail of a SELECT: an ordered step list that
// depends only on the statement and the schema of the joined, filtered input,
// so a planner comparing many join trees for one statement plans it once and
// stacks it on each. The steps and the input schema are shared, read-only, by
// every tree built.
type Top struct {
	steps []topStep
	in    *sqltypes.Schema
}

// PlanTop compiles the non-join tail of a SELECT — aggregation, HAVING,
// projection, ORDER BY, DISTINCT and LIMIT — given the schema of the joined,
// filtered input.
func PlanTop(stmt *sqlparser.SelectStmt, schema *sqltypes.Schema) (Top, error) {
	in := schema
	var steps []topStep
	selectItems := stmt.Select
	having := stmt.Having
	orderBy := stmt.OrderBy
	if stmt.HasAggregates() || len(stmt.GroupBy) > 0 {
		var aggs []*sqlparser.AggExpr
		for _, item := range selectItems {
			if item.Star {
				return Top{}, fmt.Errorf("exec: SELECT * cannot be combined with aggregation")
			}
			aggs = CollectAggregates(item.Expr, aggs)
		}
		if having != nil {
			aggs = CollectAggregates(having, aggs)
		}
		for _, o := range orderBy {
			aggs = CollectAggregates(o.Expr, aggs)
		}
		steps = append(steps, topStep{kind: stepAggregate, groupBy: stmt.GroupBy, aggs: aggs})
		mapping := map[string]string{}
		for i, a := range aggs {
			mapping[a.String()] = aggColName(i)
		}
		var keys map[string]string // a select item, HAVING or ORDER BY that repeats a key reads its column
		for i, g := range stmt.GroupBy {
			if _, ref := g.(*sqlparser.ColumnRef); !ref {
				if keys == nil {
					keys = map[string]string{}
				}
				keys[g.String()] = aggKeyName(stmt.GroupBy, i)
			}
		}
		schema = aggSchema(stmt.GroupBy, aggs, schema)
		rewritten := make([]sqlparser.SelectItem, len(selectItems))
		for i, item := range selectItems {
			rewritten[i] = sqlparser.SelectItem{
				Expr:  RewriteAggregates(item.Expr, mapping, keys),
				Alias: item.Alias,
			}
			// Preserve output naming for bare aggregates without aliases.
			if rewritten[i].Alias == "" {
				rewritten[i].Alias = aggOutputName(item)
			}
		}
		selectItems = rewritten
		if having != nil {
			steps = append(steps, topStep{kind: stepFilter, pred: RewriteAggregates(having, mapping, keys)})
		}
		newOrder := make([]sqlparser.OrderItem, len(orderBy))
		for i, o := range orderBy {
			newOrder[i] = sqlparser.OrderItem{Expr: RewriteAggregates(o.Expr, mapping, keys), Desc: o.Desc}
		}
		orderBy = newOrder
	}

	// ORDER BY before projection when keys reference pre-projection columns;
	// we conservatively sort first (all keys still resolvable), then project.
	if len(orderBy) > 0 {
		resolvable := true
		for _, o := range orderBy {
			if !sqlparser.ExprResolves(o.Expr, schema) {
				resolvable = false
				break
			}
		}
		if resolvable {
			steps = append(steps, topStep{kind: stepSort, keys: orderBy})
			orderBy = nil
		}
	}

	steps = append(steps, topStep{kind: stepProject, items: selectItems})

	// Any ORDER BY keys that reference projection aliases sort here.
	if len(orderBy) > 0 {
		steps = append(steps, topStep{kind: stepSort, keys: orderBy})
	}
	if stmt.Distinct {
		steps = append(steps, topStep{kind: stepDistinct})
	}
	if stmt.Limit >= 0 {
		steps = append(steps, topStep{kind: stepLimit, n: stmt.Limit})
	}
	return Top{steps: steps, in: in}, nil
}

// BuildTop applies the non-join tail of a SELECT statement — aggregation,
// HAVING, projection, ORDER BY, DISTINCT and LIMIT — on top of an input
// operator that already produces the joined, filtered rows.
func BuildTop(stmt *sqlparser.SelectStmt, current Operator) (Operator, error) {
	top, err := PlanTop(stmt, current.Schema())
	if err != nil {
		return nil, err
	}
	return top.Build(current), nil
}

// Build stacks the tail's operators onto current, which must produce the
// schema the tail was planned against, and finishes the plan: each join in
// it gets its output schema, shared with the tail's input schema where it is
// that, and learns which of its output columns the operators above read
// (finishPlan).
func (t Top) Build(current Operator) Operator {
	root := t.stack(current, func(in Operator, s topStep) Operator {
		return &Aggregate{Input: in, GroupBy: s.groupBy, Aggs: s.aggs}
	})
	finishPlan(root, current, t.in)
	return root
}

// stack is Build with the operator for the aggregation step supplied by the
// caller.
func (t Top) stack(current Operator, aggregate func(in Operator, s topStep) Operator) Operator {
	for _, s := range t.steps {
		switch s.kind {
		case stepAggregate:
			current = aggregate(current, s)
		case stepFilter:
			current = &Filter{Input: current, Pred: s.pred}
		case stepSort:
			current = &Sort{Input: current, Keys: s.keys}
		case stepProject:
			current = &Project{Input: current, Items: s.items}
		case stepDistinct:
			current = &Distinct{Input: current}
		case stepLimit:
			current = &Limit{Input: current, N: s.n}
		}
	}
	return current
}

// aggOutputName gives an aggregate select item a stable output name derived
// from its SQL text, e.g. "SUM(x.v)".
func aggOutputName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if _, ok := item.Expr.(*sqlparser.ColumnRef); ok {
		return "" // projection derives the bare name itself
	}
	return item.Expr.String()
}
