package exec

import (
	"fmt"
	"math"
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

type aggState struct {
	count   int64
	sum     float64
	sumInt  int64
	intOnly bool
	min     sqltypes.Value
	max     sqltypes.Value
	seen    bool
}

func newAggState() *aggState { return &aggState{intOnly: true} }

func (s *aggState) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	s.count++
	s.seen = true
	if v.Kind() == sqltypes.KindInt {
		s.sumInt += v.Int()
	} else {
		s.intOnly = false
	}
	s.sum += v.Float()
	if s.min.IsNull() || sqltypes.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || sqltypes.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// addInt64 is add for a non-null int cell of an int vector. While min and
// max are ints the exact int comparison is sqltypes.Compare's; a state that
// met another kind first (an earlier batch's vector of floats, or a boxed
// cell) takes add's path.
func (s *aggState) addInt64(i int64) {
	switch {
	case !s.seen:
		s.min, s.max = sqltypes.NewInt(i), sqltypes.NewInt(i)
	case s.min.Kind() != sqltypes.KindInt || s.max.Kind() != sqltypes.KindInt:
		s.add(sqltypes.NewInt(i))
		return
	default:
		if i < s.min.Int() {
			s.min = sqltypes.NewInt(i)
		}
		if i > s.max.Int() {
			s.max = sqltypes.NewInt(i)
		}
	}
	s.count++
	s.seen = true
	s.sumInt += i
	s.sum += float64(i)
}

// addFloat64 is add for a non-null float cell of a float vector. While min
// and max are floats the direct < / > comparisons match sqltypes.Compare's
// float ordering, including NaN comparing equal to everything (never
// replacing min/max); a state that met another kind first takes add's path.
func (s *aggState) addFloat64(f float64) {
	switch {
	case !s.seen:
		s.min, s.max = sqltypes.NewFloat(f), sqltypes.NewFloat(f)
	case s.min.Kind() != sqltypes.KindFloat || s.max.Kind() != sqltypes.KindFloat:
		s.add(sqltypes.NewFloat(f))
		return
	default:
		if f < s.min.Float() {
			s.min = sqltypes.NewFloat(f)
		}
		if f > s.max.Float() {
			s.max = sqltypes.NewFloat(f)
		}
	}
	s.count++
	s.seen = true
	s.intOnly = false
	s.sum += f
}

func (s *aggState) result(fn sqlparser.AggFunc) sqltypes.Value {
	switch fn {
	case sqlparser.AggCount:
		return sqltypes.NewInt(s.count)
	case sqlparser.AggSum:
		if !s.seen {
			return sqltypes.Null
		}
		if s.intOnly {
			return sqltypes.NewInt(s.sumInt)
		}
		return sqltypes.NewFloat(s.floatSum())
	case sqlparser.AggAvg:
		if s.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(s.floatSum() / float64(s.count))
	case sqlparser.AggMin:
		return s.min
	case sqlparser.AggMax:
		return s.max
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

// aggGroup is one group's accumulated state.
type aggGroup struct {
	keys   sqltypes.Row
	states []*aggState
	// countStar counts all rows in the group for COUNT(*).
	countStar int64
}

// aggFolder is the incremental grouping kernel shared by both engines: input
// rows fold into per-group states a relation (row engine) or a batch
// (vectorized pipeline) at a time, so the two are identical by construction.
type aggFolder struct {
	groupBy []sqlparser.Expr
	aggs    []*sqlparser.AggExpr
	groups  map[uint64][]*aggGroup
	order   []*aggGroup
	vec     foldVec // foldBatch's state
}

func newAggFolder(groupBy []sqlparser.Expr, aggs []*sqlparser.AggExpr) *aggFolder {
	return &aggFolder{groupBy: groupBy, aggs: aggs, groups: map[uint64][]*aggGroup{}}
}

// fold accumulates one batch of rows.
func (f *aggFolder) fold(in *sqltypes.Relation) error {
	for _, row := range in.Rows {
		keys := make(sqltypes.Row, len(f.groupBy))
		for i, g := range f.groupBy {
			v, err := sqlparser.Eval(g, row, in.Schema)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		h := rowHash(keys)
		var grp *aggGroup
		for _, g := range f.groups[h] {
			if rowsIdentical(g.keys, keys) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &aggGroup{keys: keys, states: make([]*aggState, len(f.aggs))}
			for i := range grp.states {
				grp.states[i] = newAggState()
			}
			f.groups[h] = append(f.groups[h], grp)
			f.order = append(f.order, grp)
		}
		grp.countStar++
		for i, agg := range f.aggs {
			if agg.Arg == nil {
				continue // COUNT(*): handled by countStar
			}
			v, err := sqlparser.Eval(agg.Arg, row, in.Schema)
			if err != nil {
				return err
			}
			grp.states[i].add(v)
		}
	}
	return nil
}

// result finalizes the groups into the output relation.
func (f *aggFolder) result(out *sqltypes.Schema) *sqltypes.Relation {
	order := f.order
	// Scalar aggregation over an empty input still yields one row.
	if len(f.groupBy) == 0 && len(order) == 0 {
		grp := &aggGroup{states: make([]*aggState, len(f.aggs))}
		for i := range grp.states {
			grp.states[i] = newAggState()
		}
		order = append(order, grp)
	}
	rel := sqltypes.NewRelation(out)
	for _, grp := range order {
		row := make(sqltypes.Row, 0, len(f.groupBy)+len(f.aggs))
		row = append(row, grp.keys...)
		for i, agg := range f.aggs {
			if agg.Func == sqlparser.AggCount && agg.Arg == nil {
				row = append(row, sqltypes.NewInt(grp.countStar))
				continue
			}
			row = append(row, grp.states[i].result(agg.Func))
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
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
// aggregate text to output column name. Group-key columns keep their bare
// names (qualifiers are stripped since Aggregate outputs unqualified keys).
func RewriteAggregates(e sqlparser.Expr, mapping map[string]string) sqlparser.Expr {
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
			Left:  RewriteAggregates(x.Left, mapping),
			Right: RewriteAggregates(x.Right, mapping),
		}
	case *sqlparser.NotExpr:
		return &sqlparser.NotExpr{Inner: RewriteAggregates(x.Inner, mapping)}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{Inner: RewriteAggregates(x.Inner, mapping), Negate: x.Negate}
	case *sqlparser.InExpr:
		list := make([]sqlparser.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = RewriteAggregates(it, mapping)
		}
		return &sqlparser.InExpr{Needle: RewriteAggregates(x.Needle, mapping), List: list, Negate: x.Negate}
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			Subject: RewriteAggregates(x.Subject, mapping),
			Lo:      RewriteAggregates(x.Lo, mapping),
			Hi:      RewriteAggregates(x.Hi, mapping),
			Negate:  x.Negate,
		}
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{Subject: RewriteAggregates(x.Subject, mapping), Pattern: x.Pattern, Negate: x.Negate}
	case *sqlparser.FuncExpr:
		args := make([]sqlparser.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteAggregates(a, mapping)
		}
		return &sqlparser.FuncExpr{Name: x.Name, Args: args}
	default:
		return e
	}
}
