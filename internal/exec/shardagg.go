package exec

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Two-phase aggregation over sharded tables: each shard runs a partial
// aggregation remotely (its normal Aggregate kernel, row or vectorized) and
// ships typed partial states; ShardAggFinal merges the states at the II.
//
// Partial state layout per aggregate, in StatementAggregates order:
//
//	COUNT(x), COUNT(*) — one column: the shard's count (int)
//	SUM(x)             — one column: the shard's SUM (NULL if no non-null input)
//	MIN(x), MAX(x)     — one column: the shard's extremum (NULL if none)
//	AVG(x)             — two columns: SUM(x) then COUNT(x)
//
// Empty shards contribute identity states (0 counts, NULL sums/extrema), so
// pruned and unpruned scatter-gather merge to exactly the same values.

// StatementAggregates collects the distinct aggregate calls of a SELECT in
// the exact order PlanTop collects them (select items, then HAVING,
// then ORDER BY), so the per-shard partial statements and the final merge
// agree on aggregate positions.
func StatementAggregates(stmt *sqlparser.SelectStmt) ([]*sqlparser.AggExpr, error) {
	var aggs []*sqlparser.AggExpr
	for _, item := range stmt.Select {
		if item.Star {
			return nil, fmt.Errorf("exec: SELECT * cannot be combined with aggregation")
		}
		aggs = CollectAggregates(item.Expr, aggs)
	}
	if stmt.Having != nil {
		aggs = CollectAggregates(stmt.Having, aggs)
	}
	for _, o := range stmt.OrderBy {
		aggs = CollectAggregates(o.Expr, aggs)
	}
	return aggs, nil
}

// StateColName names partial-state column i in the per-shard statement.
func StateColName(i int) string { return fmt.Sprintf("s%d", i) }

// PartialStateWidth is the number of state columns aggregate a ships.
func PartialStateWidth(a *sqlparser.AggExpr) int {
	if a.Func == sqlparser.AggAvg {
		return 2
	}
	return 1
}

// PartialAggItems returns the partial-state select items for a shard's
// statement: AVG(x) splits into SUM(x)+COUNT(x); every other aggregate is
// its own partial. States are aliased s0..sK-1 in expansion order.
func PartialAggItems(aggs []*sqlparser.AggExpr) []sqlparser.SelectItem {
	var items []sqlparser.SelectItem
	k := 0
	for _, a := range aggs {
		if a.Func == sqlparser.AggAvg {
			items = append(items,
				sqlparser.SelectItem{Expr: &sqlparser.AggExpr{Func: sqlparser.AggSum, Arg: a.Arg}, Alias: StateColName(k)},
				sqlparser.SelectItem{Expr: &sqlparser.AggExpr{Func: sqlparser.AggCount, Arg: a.Arg}, Alias: StateColName(k + 1)},
			)
			k += 2
			continue
		}
		items = append(items, sqlparser.SelectItem{Expr: a, Alias: StateColName(k)})
		k++
	}
	return items
}

// ShardAggFinal merges concatenated per-shard partial-aggregation rows into
// final aggregate values. Input rows are laid out as the group-key cells
// followed by the partial-state cells; the output schema matches the plain
// Aggregate operator's (keys then a0..aM-1 typed against Base), so the rest
// of the tail — HAVING, projection, ORDER BY — is byte-compatible with the
// unsharded plan.
type ShardAggFinal struct {
	Input   Operator
	GroupBy []sqlparser.Expr
	Aggs    []*sqlparser.AggExpr
	// Base is the pre-aggregation schema of the logical fragment, used only
	// to type the output columns exactly like the unsharded Aggregate.
	Base *sqltypes.Schema
}

// Schema implements Operator.
func (s *ShardAggFinal) Schema() *sqltypes.Schema {
	return aggSchema(s.GroupBy, s.Aggs, s.Base)
}

// Execute implements Operator.
func (s *ShardAggFinal) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := s.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.checkWidth(in.Schema); err != nil {
		return nil, err
	}
	ctx.Res.Add(s.Charge(float64(len(in.Rows))))
	m := s.newMerger()
	m.fold(len(in.Rows), func(r, c int) sqltypes.Value { return in.Rows[r][c] })
	return m.result(), nil
}

// checkWidth validates the partial-state input layout (keys then states).
func (s *ShardAggFinal) checkWidth(schema *sqltypes.Schema) error {
	width := len(s.GroupBy)
	for _, a := range s.Aggs {
		width += PartialStateWidth(a)
	}
	if schema.Len() != width {
		return fmt.Errorf("exec: shard merge expects %d partial columns, input has %d", width, schema.Len())
	}
	return nil
}

// shardMerger is the engine-independent merge kernel: fold takes partial rows
// through a cell accessor, a relation's or a column batch's at a time, and
// result turns the groups into final aggregate values. Execute folds its
// whole input at once, the vectorized pipeline one arriving batch after the
// other; the grouping and the fold order are identical by construction. A
// group's states are the Aggregate kernel's: COUNT adds the partial counts,
// AVG adds the partial sums and the partial counts into one state, and SUM,
// MIN and MAX fold the partial values as the Aggregate kernel folds cells.
type shardMerger struct {
	s *ShardAggFinal
	groupTable
	keys sqltypes.Row // fold's scratch key row
}

func (s *ShardAggFinal) newMerger() *shardMerger {
	return &shardMerger{s: s, groupTable: newGroupTable(len(s.Aggs)), keys: make(sqltypes.Row, len(s.GroupBy))}
}

// fold merges n partial rows into the groups.
func (m *shardMerger) fold(n int, cell func(row, col int) sqltypes.Value) {
	s, k, keys := m.s, len(m.s.GroupBy), m.keys
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			keys[c] = cell(r, c)
		}
		grp := m.find(rowHash(keys), keys)
		off := k
		for i, a := range s.Aggs {
			st := &grp.states[i]
			switch a.Func {
			case sqlparser.AggCount:
				st.count += cell(r, off).Int()
			case sqlparser.AggAvg:
				if sum := cell(r, off); !sum.IsNull() {
					st.addSum(sum)
				}
				st.count += cell(r, off+1).Int()
			default: // SUM, MIN, MAX: fold the partial value
				st.add(a.Func, cell(r, off))
			}
			off += PartialStateWidth(a)
		}
	}
}

// result finalizes the merged groups, in first-appearance order. A scalar
// merge over no partials still yields one row, as the plain folder does
// (it cannot normally happen: every shard ships one scalar partial row).
func (m *shardMerger) result() *sqltypes.Relation {
	return m.relation(m.s.Schema(), m.s.Aggs, len(m.s.GroupBy) == 0)
}

// Explain implements Operator.
func (s *ShardAggFinal) Explain() string {
	var keys []string
	for _, g := range s.GroupBy {
		keys = append(keys, g.String())
	}
	var aggs []string
	for _, a := range s.Aggs {
		aggs = append(aggs, a.String())
	}
	return fmt.Sprintf("SHARD MERGE [%s] BY [%s]", strings.Join(aggs, ", "), strings.Join(keys, ", "))
}

// Children implements Operator.
func (s *ShardAggFinal) Children() []Operator { return []Operator{s.Input} }

// BuildShardFinal assembles the II-side tail of a two-phase aggregate query:
// the same PlanTop steps as the unsharded plan, with the aggregation step
// replaced by a ShardAggFinal over the concatenated partial rows. base is
// the logical fragment's pre-aggregation schema.
func BuildShardFinal(stmt *sqlparser.SelectStmt, base *sqltypes.Schema, partial Operator) (Operator, error) {
	top, err := PlanTop(stmt, base)
	if err != nil {
		return nil, err
	}
	return top.stack(partial, func(in Operator, s topStep) Operator {
		return &ShardAggFinal{Input: in, GroupBy: s.groupBy, Aggs: s.aggs, Base: base}
	}), nil
}
