package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Aggregate groups its input on the GroupBy expressions and computes the
// listed aggregates. The output schema is the group keys (named g0..gN-1 or
// the column name when the key is a bare column) followed by one column per
// aggregate (named a0..aM-1). Callers rewrite downstream expressions with
// RewriteAggregates to reference the aggregate columns.
type Aggregate struct {
	Input   Operator
	GroupBy []sqlparser.Expr
	Aggs    []*sqlparser.AggExpr
}

func aggKeyName(groupBy []sqlparser.Expr, i int) string {
	if ref, ok := groupBy[i].(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return fmt.Sprintf("g%d", i)
}

func aggColName(i int) string { return fmt.Sprintf("a%d", i) }

// aggSchema derives the aggregation output schema from an input schema: the
// group keys followed by one column per aggregate.
func aggSchema(groupBy []sqlparser.Expr, aggs []*sqlparser.AggExpr, in *sqltypes.Schema) *sqltypes.Schema {
	var cols []sqltypes.Column
	for i, g := range groupBy {
		cols = append(cols, sqltypes.Column{Name: aggKeyName(groupBy, i), Type: inferType(g, in)})
	}
	for i, agg := range aggs {
		cols = append(cols, sqltypes.Column{Name: aggColName(i), Type: inferType(agg, in)})
	}
	return sqltypes.NewSchema(cols...)
}

// Schema implements Operator.
func (a *Aggregate) Schema() *sqltypes.Schema {
	return aggSchema(a.GroupBy, a.Aggs, a.Input.Schema())
}

// aggState is one aggregate's state in one group, used as its function
// needs it: COUNT(x) and COUNT(*) keep count; SUM and AVG keep count, the int
// sum and the float sum; MIN and MAX keep ext, one extreme. The zero value is
// the empty state, so a group's states are one slice made with the group.
//
// SUM and AVG keep both sums, each added in arrival order, whatever kinds
// arrive: SUM is the int sum while every cell was an int, else the float sum,
// so a column that is an int vector in one batch and floats (or boxed cells)
// in the next sums to the same bits as the row kernel.
type aggState struct {
	count  int64
	sumInt int64
	sum    float64
	ext    sqltypes.Value // MIN or MAX: NULL until a non-NULL cell arrives
	mixed  bool           // SUM or AVG met a cell that is not an int
}

// add folds one cell into the state of function fn; a NULL cell changes
// nothing.
func (s *aggState) add(fn sqlparser.AggFunc, v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	switch fn {
	case sqlparser.AggCount:
		s.count++
	case sqlparser.AggSum, sqlparser.AggAvg:
		s.count++
		s.addSum(v)
	case sqlparser.AggMin:
		if s.ext.IsNull() || sqltypes.Compare(v, s.ext) < 0 {
			s.ext = v
		}
	case sqlparser.AggMax:
		if s.ext.IsNull() || sqltypes.Compare(v, s.ext) > 0 {
			s.ext = v
		}
	}
}

// addSum adds a non-NULL cell to both sums.
func (s *aggState) addSum(v sqltypes.Value) {
	if v.Kind() == sqltypes.KindInt {
		s.sumInt += v.Int()
	} else {
		s.mixed = true
	}
	s.sum += v.Float()
}

// sumInt64 and sumFloat64 are add for a SUM or AVG over a non-NULL cell of
// an int or a float vector.
func (s *aggState) sumInt64(i int64) {
	s.count++
	s.sumInt += i
	s.sum += float64(i)
}

func (s *aggState) sumFloat64(f float64) {
	s.count++
	s.mixed = true
	s.sum += f
}

// extInt64 and extFloat64 are add for a MIN or MAX (fn) over a non-NULL cell
// of an int or a float vector. While the extreme has the cell's kind, the
// direct < and > are sqltypes.Compare's order: exact ints, and floats where
// a NaN compares equal to everything, so it never replaces an extreme and,
// once the extreme, is never replaced. An extreme of another kind (an
// earlier batch's vector, or a boxed cell) takes add's path.
func (s *aggState) extInt64(fn sqlparser.AggFunc, i int64) {
	switch s.ext.Kind() {
	case sqltypes.KindNull:
		s.ext = sqltypes.NewInt(i)
	case sqltypes.KindInt:
		if e := s.ext.Int(); fn == sqlparser.AggMin && i < e || fn == sqlparser.AggMax && i > e {
			s.ext = sqltypes.NewInt(i)
		}
	default:
		s.add(fn, sqltypes.NewInt(i))
	}
}

func (s *aggState) extFloat64(fn sqlparser.AggFunc, f float64) {
	switch s.ext.Kind() {
	case sqltypes.KindNull:
		s.ext = sqltypes.NewFloat(f)
	case sqltypes.KindFloat:
		if e := s.ext.Float(); fn == sqlparser.AggMin && f < e || fn == sqlparser.AggMax && f > e {
			s.ext = sqltypes.NewFloat(f)
		}
	default:
		s.add(fn, sqltypes.NewFloat(f))
	}
}

func (s *aggState) result(fn sqlparser.AggFunc) sqltypes.Value {
	switch fn {
	case sqlparser.AggCount:
		return sqltypes.NewInt(s.count)
	case sqlparser.AggSum:
		if s.count == 0 {
			return sqltypes.Null
		}
		if !s.mixed {
			return sqltypes.NewInt(s.sumInt)
		}
		return sqltypes.NewFloat(s.floatSum())
	case sqlparser.AggAvg:
		if s.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(s.floatSum() / float64(s.count))
	case sqlparser.AggMin, sqlparser.AggMax:
		return s.ext
	default:
		return sqltypes.Null
	}
}

// floatSum is the float sum, any NaN as math.NaN(). When NaNs of two
// payloads meet in one addition (Inf - Inf makes a NaN of its own), which
// payload the sum keeps is the compiled code's choice of operand order, which
// differs between add and the typed adds; the canonical NaN makes the SUM
// and AVG of both engines, and of a shard merge, one value.
func (s *aggState) floatSum() float64 {
	if s.sum != s.sum {
		return math.NaN()
	}
	return s.sum
}

// aggGroup is one group: its keys and one state per aggregate. next chains
// the groups whose keys share a hash, in the order they were made.
type aggGroup struct {
	keys   sqltypes.Row
	states []aggState
	next   *aggGroup
}

// groupTable files groups by the hash of their keys and keeps them in
// first-appearance order: the grouping of aggFolder and shardMerger alike.
type groupTable struct {
	byHash map[uint64]*aggGroup // the first group of each hash's chain
	order  []*aggGroup
	width  int // states per group
}

func newGroupTable(width int) groupTable {
	return groupTable{byHash: map[uint64]*aggGroup{}, width: width}
}

// find returns the group under hash h whose keys are identical to keys, or
// makes one with a copy of keys.
func (t *groupTable) find(h uint64, keys sqltypes.Row) *aggGroup {
	grp, last := t.byHash[h], (*aggGroup)(nil)
	for grp != nil && !rowsIdentical(grp.keys, keys) {
		last, grp = grp, grp.next
	}
	if grp == nil {
		grp = t.add(h, last, slices.Clone(keys))
	}
	return grp
}

// add makes the group of keys under hash h, after last, the end of h's chain
// (nil when the chain is empty).
func (t *groupTable) add(h uint64, last *aggGroup, keys sqltypes.Row) *aggGroup {
	grp := &aggGroup{keys: keys, states: make([]aggState, t.width)}
	if last == nil {
		t.byHash[h] = grp
	} else {
		last.next = grp
	}
	t.order = append(t.order, grp)
	return grp
}

// relation finalizes the groups, in first-appearance order, into rows of
// their keys and one value per aggregate. A scalar aggregate over no rows
// still yields its one row of empty states.
func (t *groupTable) relation(out *sqltypes.Schema, aggs []*sqlparser.AggExpr, scalar bool) *sqltypes.Relation {
	order := t.order
	if scalar && len(order) == 0 {
		order = []*aggGroup{{states: make([]aggState, t.width)}}
	}
	rel := sqltypes.NewRelation(out)
	for _, grp := range order {
		row := make(sqltypes.Row, 0, len(grp.keys)+len(aggs))
		row = append(row, grp.keys...)
		for i, agg := range aggs {
			row = append(row, grp.states[i].result(agg.Func))
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// aggFolder is the incremental grouping kernel shared by both engines: input
// rows fold into per-group states a relation (row engine) or a batch
// (vectorized pipeline) at a time, so the two are identical by construction.
type aggFolder struct {
	groupBy []sqlparser.Expr
	aggs    []*sqlparser.AggExpr
	groupTable
	keys sqltypes.Row // fold's scratch key row
	vec  foldVec      // foldBatch's state
}

func newAggFolder(groupBy []sqlparser.Expr, aggs []*sqlparser.AggExpr) *aggFolder {
	return &aggFolder{groupBy: groupBy, aggs: aggs, groupTable: newGroupTable(len(aggs)), keys: make(sqltypes.Row, len(groupBy))}
}

// fold accumulates one batch of rows.
func (f *aggFolder) fold(in *sqltypes.Relation) error {
	keys := f.keys
	for _, row := range in.Rows {
		for i, g := range f.groupBy {
			v, err := sqlparser.Eval(g, row, in.Schema)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		grp := f.find(rowHash(keys), keys)
		for i, agg := range f.aggs {
			if agg.Arg == nil {
				grp.states[i].count++ // COUNT(*)
				continue
			}
			v, err := sqlparser.Eval(agg.Arg, row, in.Schema)
			if err != nil {
				return err
			}
			grp.states[i].add(agg.Func, v)
		}
	}
	return nil
}

// result finalizes the groups into the output relation.
func (f *aggFolder) result(out *sqltypes.Schema) *sqltypes.Relation {
	return f.relation(out, f.aggs, len(f.groupBy) == 0)
}

// Execute implements Operator.
func (a *Aggregate) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := a.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(a.Charge(float64(len(in.Rows))))
	folder := newAggFolder(a.GroupBy, a.Aggs)
	if err := folder.fold(in); err != nil {
		return nil, err
	}
	return folder.result(a.Schema()), nil
}

// Explain implements Operator.
func (a *Aggregate) Explain() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	var aggs []string
	for _, ag := range a.Aggs {
		aggs = append(aggs, ag.String())
	}
	return fmt.Sprintf("AGGREGATE [%s] BY [%s]", strings.Join(aggs, ", "), strings.Join(parts, ", "))
}

// Children implements Operator.
func (a *Aggregate) Children() []Operator { return []Operator{a.Input} }

// CollectAggregates walks e appending every distinct aggregate call
// (deduplicated by rendering) to aggs, returning the extended list.
func CollectAggregates(e sqlparser.Expr, aggs []*sqlparser.AggExpr) []*sqlparser.AggExpr {
	switch x := e.(type) {
	case *sqlparser.AggExpr:
		for _, prev := range aggs {
			if prev.String() == x.String() {
				return aggs
			}
		}
		return append(aggs, x)
	case *sqlparser.BinaryExpr:
		aggs = CollectAggregates(x.Left, aggs)
		return CollectAggregates(x.Right, aggs)
	case *sqlparser.NotExpr:
		return CollectAggregates(x.Inner, aggs)
	case *sqlparser.IsNullExpr:
		return CollectAggregates(x.Inner, aggs)
	case *sqlparser.InExpr:
		aggs = CollectAggregates(x.Needle, aggs)
		for _, it := range x.List {
			aggs = CollectAggregates(it, aggs)
		}
		return aggs
	case *sqlparser.BetweenExpr:
		aggs = CollectAggregates(x.Subject, aggs)
		aggs = CollectAggregates(x.Lo, aggs)
		return CollectAggregates(x.Hi, aggs)
	case *sqlparser.LikeExpr:
		return CollectAggregates(x.Subject, aggs)
	case *sqlparser.FuncExpr:
		for _, a := range x.Args {
			aggs = CollectAggregates(a, aggs)
		}
		return aggs
	default:
		return aggs
	}
}

// RewriteAggregates replaces aggregate calls in e with column references
// into the Aggregate operator's output, using the mapping from rendered
// aggregate text to output column name, and likewise every sub-expression
// whose rendering keys lists: the GROUP BY expressions that are not bare
// columns, whose values are the output's key columns (the input columns
// they read are gone after aggregation). Group-key columns keep their bare
// names (qualifiers are stripped since Aggregate outputs unqualified keys).
func RewriteAggregates(e sqlparser.Expr, mapping, keys map[string]string) sqlparser.Expr {
	if len(keys) > 0 {
		if _, ref := e.(*sqlparser.ColumnRef); !ref {
			if name, ok := keys[e.String()]; ok {
				return &sqlparser.ColumnRef{Name: name}
			}
		}
	}
	switch x := e.(type) {
	case *sqlparser.AggExpr:
		if name, ok := mapping[x.String()]; ok {
			return &sqlparser.ColumnRef{Name: name}
		}
		return x
	case *sqlparser.ColumnRef:
		// After aggregation, keys are unqualified.
		return &sqlparser.ColumnRef{Name: x.Name}
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{
			Op:    x.Op,
			Left:  RewriteAggregates(x.Left, mapping, keys),
			Right: RewriteAggregates(x.Right, mapping, keys),
		}
	case *sqlparser.NotExpr:
		return &sqlparser.NotExpr{Inner: RewriteAggregates(x.Inner, mapping, keys)}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{Inner: RewriteAggregates(x.Inner, mapping, keys), Negate: x.Negate}
	case *sqlparser.InExpr:
		list := make([]sqlparser.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = RewriteAggregates(it, mapping, keys)
		}
		return &sqlparser.InExpr{Needle: RewriteAggregates(x.Needle, mapping, keys), List: list, Negate: x.Negate}
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			Subject: RewriteAggregates(x.Subject, mapping, keys),
			Lo:      RewriteAggregates(x.Lo, mapping, keys),
			Hi:      RewriteAggregates(x.Hi, mapping, keys),
			Negate:  x.Negate,
		}
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{Subject: RewriteAggregates(x.Subject, mapping, keys), Pattern: x.Pattern, Negate: x.Negate}
	case *sqlparser.FuncExpr:
		args := make([]sqlparser.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteAggregates(a, mapping, keys)
		}
		return &sqlparser.FuncExpr{Name: x.Name, Args: args}
	default:
		return e
	}
}
