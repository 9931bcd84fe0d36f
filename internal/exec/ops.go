package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Filter keeps rows satisfying a predicate.
type Filter struct {
	Input Operator
	Pred  sqlparser.Expr
}

// Schema implements Operator.
func (f *Filter) Schema() *sqltypes.Schema { return f.Input.Schema() }

// Execute implements Operator.
func (f *Filter) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := f.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(f.Charge(float64(len(in.Rows))))
	out := sqltypes.NewRelation(in.Schema)
	for _, row := range in.Rows {
		ok, err := sqlparser.EvalBool(f.Pred, row, in.Schema)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Explain implements Operator.
func (f *Filter) Explain() string { return "FILTER " + f.Pred.String() }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Input} }

// Project evaluates scalar select items. Aggregates must have been rewritten
// to column references by Aggregate before projection.
type Project struct {
	Input Operator
	Items []sqlparser.SelectItem
}

// Schema implements Operator.
func (p *Project) Schema() *sqltypes.Schema { return projectSchema(p.Items, p.Input.Schema()) }

// projectSchema derives the projection output schema from an input schema.
func projectSchema(items []sqlparser.SelectItem, in *sqltypes.Schema) *sqltypes.Schema {
	var cols []sqltypes.Column
	for _, item := range items {
		if item.Star {
			cols = append(cols, in.Columns...)
			continue
		}
		col := sqltypes.Column{Name: projectOutputName(item), Type: inferType(item.Expr, in)}
		// An unaliased reference keeps the qualifier it was written with, so the
		// operators above a projection (the integrator's joins over projected
		// fragments) still resolve t.c against it.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && item.Alias == "" {
			col.Table = ref.Table
		}
		cols = append(cols, col)
	}
	return sqltypes.NewSchema(cols...)
}

func projectOutputName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok {
		return ref.Name
	}
	return item.Expr.String()
}

// inferType guesses an output column's kind; precise typing is not needed by
// the executor (values carry their own kinds) but schemas drive display.
func inferType(e sqlparser.Expr, in *sqltypes.Schema) sqltypes.Kind {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val.Kind()
	case *sqlparser.ColumnRef:
		if i, err := in.ColumnIndex(x.Table, x.Name); err == nil {
			return in.Columns[i].Type
		}
		return sqltypes.KindNull
	case *sqlparser.BinaryExpr:
		if x.Op.IsComparison() || x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return sqltypes.KindBool
		}
		lt, rt := inferType(x.Left, in), inferType(x.Right, in)
		if lt == sqltypes.KindFloat || rt == sqltypes.KindFloat || x.Op == sqlparser.OpDiv {
			return sqltypes.KindFloat
		}
		return lt
	case *sqlparser.FuncExpr:
		switch x.Name {
		case "LENGTH", "MOD":
			return sqltypes.KindInt
		case "UPPER", "LOWER", "SUBSTR":
			return sqltypes.KindString
		case "ABS", "COALESCE":
			if len(x.Args) > 0 {
				return inferType(x.Args[0], in)
			}
			return sqltypes.KindNull
		default:
			return sqltypes.KindFloat
		}
	case *sqlparser.AggExpr:
		switch x.Func {
		case sqlparser.AggCount:
			return sqltypes.KindInt
		case sqlparser.AggAvg:
			return sqltypes.KindFloat
		default:
			if x.Arg != nil {
				return inferType(x.Arg, in)
			}
			return sqltypes.KindFloat
		}
	default:
		return sqltypes.KindBool
	}
}

// Execute implements Operator.
func (p *Project) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := p.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(p.Charge(float64(len(in.Rows))))
	out := sqltypes.NewRelation(projectSchema(p.Items, in.Schema))
	for _, row := range in.Rows {
		var outRow sqltypes.Row
		for _, item := range p.Items {
			if item.Star {
				outRow = append(outRow, row...)
				continue
			}
			v, err := sqlparser.Eval(item.Expr, row, in.Schema)
			if err != nil {
				return nil, err
			}
			outRow = append(outRow, v)
		}
		out.Rows = append(out.Rows, outRow)
	}
	return out, nil
}

// Explain implements Operator.
func (p *Project) Explain() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.String()
	}
	return "PROJECT " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Input} }

// Sort orders rows by the given keys.
type Sort struct {
	Input Operator
	Keys  []sqlparser.OrderItem
}

// Schema implements Operator.
func (s *Sort) Schema() *sqltypes.Schema { return s.Input.Schema() }

// Execute implements Operator.
func (s *Sort) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := s.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(s.Charge(float64(len(in.Rows))))
	keys := s.Keys
	type keyed struct {
		row  sqltypes.Row
		keys []sqltypes.Value
	}
	items := make([]keyed, len(in.Rows))
	for i, row := range in.Rows {
		ks := make([]sqltypes.Value, len(keys))
		for j, k := range keys {
			v, err := sqlparser.Eval(k.Expr, row, in.Schema)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		items[i] = keyed{row: row, keys: ks}
	}
	sort.SliceStable(items, func(a, b int) bool {
		for j, k := range keys {
			c := sqltypes.Compare(items[a].keys[j], items[b].keys[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := sqltypes.NewRelation(in.Schema)
	out.Rows = make([]sqltypes.Row, len(items))
	for i, it := range items {
		out.Rows[i] = it.row
	}
	return out, nil
}

// Explain implements Operator.
func (s *Sort) Explain() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.String()
	}
	return "SORT " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Input} }

// Limit keeps the first N rows.
type Limit struct {
	Input Operator
	N     int
}

// Schema implements Operator.
func (l *Limit) Schema() *sqltypes.Schema { return l.Input.Schema() }

// Execute implements Operator.
func (l *Limit) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := l.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := sqltypes.NewRelation(in.Schema)
	n := l.N
	if n > len(in.Rows) {
		n = len(in.Rows)
	}
	out.Rows = in.Rows[:n]
	return out, nil
}

// Explain implements Operator.
func (l *Limit) Explain() string { return fmt.Sprintf("LIMIT %d", l.N) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Input} }

// Distinct removes duplicate rows.
type Distinct struct {
	Input Operator
}

// Schema implements Operator.
func (d *Distinct) Schema() *sqltypes.Schema { return d.Input.Schema() }

// Execute implements Operator.
func (d *Distinct) Execute(ctx *Context) (*sqltypes.Relation, error) {
	in, err := d.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(d.Charge(float64(len(in.Rows))))
	return distinctRel(in), nil
}

// distinctRel is the row-level duplicate-elimination kernel: the rows of in
// not seen before, in order.
func distinctRel(in *sqltypes.Relation) *sqltypes.Relation {
	seen := map[uint64][]sqltypes.Row{}
	out := sqltypes.NewRelation(in.Schema)
	for _, row := range in.Rows {
		h := rowHash(row)
		dup := false
		for _, prev := range seen[h] {
			if rowsIdentical(prev, row) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], row)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Explain implements Operator.
func (d *Distinct) Explain() string { return "DISTINCT" }

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.Input} }

func rowHash(r sqltypes.Row) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range r {
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}

// rowsIdentical compares rows treating NULLs as identical (grouping/distinct
// semantics, unlike predicate equality).
func rowsIdentical(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() && b[i].IsNull() {
			continue
		}
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if sqltypes.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}
