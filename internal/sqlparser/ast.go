package sqlparser

import (
	"fmt"
	"strings"

	"repro/internal/sqltypes"
)

// Expr is a SQL expression AST node. Every node renders back to canonical
// SQL via String, which the rest of the system uses for plan signatures and
// for shipping fragments to remote servers as text.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

func (*Literal) exprNode()        {}
func (l *Literal) String() string { return l.Val.String() }

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) exprNode() {}
func (c *ColumnRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpAnd BinaryOp = iota
	OpOr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binaryOpNames = map[BinaryOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpNames[op] }

// IsComparison reports whether the operator yields a boolean from two scalars.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

func (*BinaryExpr) exprNode() {}
func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	Inner Expr
}

func (*NotExpr) exprNode()        {}
func (n *NotExpr) String() string { return "(NOT " + n.Inner.String() + ")" }

// IsNullExpr tests nullness.
type IsNullExpr struct {
	Inner  Expr
	Negate bool // IS NOT NULL
}

func (*IsNullExpr) exprNode() {}
func (n *IsNullExpr) String() string {
	if n.Negate {
		return "(" + n.Inner.String() + " IS NOT NULL)"
	}
	return "(" + n.Inner.String() + " IS NULL)"
}

// InExpr tests membership in a literal list.
type InExpr struct {
	Needle Expr
	List   []Expr
	Negate bool
}

func (*InExpr) exprNode() {}
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return "(" + e.Needle.String() + " " + op + " (" + strings.Join(parts, ", ") + "))"
}

// BetweenExpr tests range membership, inclusive.
type BetweenExpr struct {
	Subject Expr
	Lo, Hi  Expr
	Negate  bool
}

func (*BetweenExpr) exprNode() {}
func (e *BetweenExpr) String() string {
	op := "BETWEEN"
	if e.Negate {
		op = "NOT BETWEEN"
	}
	return "(" + e.Subject.String() + " " + op + " " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// LikeExpr is a simple LIKE with % wildcards only.
type LikeExpr struct {
	Subject Expr
	Pattern string
	Negate  bool
}

func (*LikeExpr) exprNode() {}
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.Negate {
		op = "NOT LIKE"
	}
	return "(" + e.Subject.String() + " " + op + " " + sqltypes.NewString(e.Pattern).String() + ")"
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String returns the SQL spelling of the aggregate.
func (a AggFunc) String() string { return aggNames[a] }

// AggExpr is an aggregate call. Arg is nil for COUNT(*).
type AggExpr struct {
	Func AggFunc
	Arg  Expr // nil means COUNT(*)
}

func (*AggExpr) exprNode() {}
func (a *AggExpr) String() string {
	if a.Arg == nil {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Arg.String() + ")"
}

// FuncExpr is a scalar function call. Supported functions: ABS, ROUND,
// FLOOR, CEIL, MOD, UPPER, LOWER, LENGTH, SUBSTR, COALESCE.
type FuncExpr struct {
	// Name is the upper-cased function name.
	Name string
	Args []Expr
}

func (*FuncExpr) exprNode() {}
func (f *FuncExpr) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one projection in the select list.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// String renders the item.
func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	out := s.Expr.String()
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// TableRef is a base table reference with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveName is the alias when present, otherwise the table name.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// JoinClause is an explicit INNER JOIN with its ON condition.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders the key.
func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String() + " ASC"
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// Tables returns every table referenced in FROM and JOIN, in order.
func (s *SelectStmt) Tables() []TableRef {
	out := []TableRef{s.From}
	for _, j := range s.Joins {
		out = append(out, j.Table)
	}
	return out
}

// HasAggregates reports whether the select list or HAVING contains an
// aggregate call.
func (s *SelectStmt) HasAggregates() bool {
	for _, item := range s.Select {
		if item.Star {
			continue
		}
		if containsAgg(item.Expr) {
			return true
		}
	}
	return s.Having != nil && containsAgg(s.Having)
}

func containsAgg(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinaryExpr:
		return containsAgg(x.Left) || containsAgg(x.Right)
	case *NotExpr:
		return containsAgg(x.Inner)
	case *IsNullExpr:
		return containsAgg(x.Inner)
	case *InExpr:
		if containsAgg(x.Needle) {
			return true
		}
		for _, item := range x.List {
			if containsAgg(item) {
				return true
			}
		}
	case *BetweenExpr:
		return containsAgg(x.Subject) || containsAgg(x.Lo) || containsAgg(x.Hi)
	case *LikeExpr:
		return containsAgg(x.Subject)
	case *FuncExpr:
		for _, a := range x.Args {
			if containsAgg(a) {
				return true
			}
		}
	}
	return false
}

// String renders the statement back to canonical SQL.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	parts := make([]string, len(s.Select))
	for i, item := range s.Select {
		parts[i] = item.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(" FROM ")
	b.WriteString(s.From.String())
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table.String() + " ON " + j.On.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(keys, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.String()
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.Limit >= 0 {
		b.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	return b.String()
}

// CollectColumnRefs appends every column reference in e to out and returns it.
func CollectColumnRefs(e Expr, out []*ColumnRef) []*ColumnRef {
	switch x := e.(type) {
	case *ColumnRef:
		out = append(out, x)
	case *BinaryExpr:
		out = CollectColumnRefs(x.Left, out)
		out = CollectColumnRefs(x.Right, out)
	case *NotExpr:
		out = CollectColumnRefs(x.Inner, out)
	case *IsNullExpr:
		out = CollectColumnRefs(x.Inner, out)
	case *InExpr:
		out = CollectColumnRefs(x.Needle, out)
		for _, item := range x.List {
			out = CollectColumnRefs(item, out)
		}
	case *BetweenExpr:
		out = CollectColumnRefs(x.Subject, out)
		out = CollectColumnRefs(x.Lo, out)
		out = CollectColumnRefs(x.Hi, out)
	case *LikeExpr:
		out = CollectColumnRefs(x.Subject, out)
	case *AggExpr:
		if x.Arg != nil {
			out = CollectColumnRefs(x.Arg, out)
		}
	case *FuncExpr:
		for _, a := range x.Args {
			out = CollectColumnRefs(a, out)
		}
	}
	return out
}

// SplitConjuncts flattens an AND tree into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from conjuncts; nil for an empty list.
func JoinConjuncts(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	out := list[0]
	for _, e := range list[1:] {
		out = &BinaryExpr{Op: OpAnd, Left: out, Right: e}
	}
	return out
}

// DropTrueLiterals removes the literal TRUE conjuncts from list, in place.
func DropTrueLiterals(list []Expr) []Expr {
	out := list[:0]
	for _, e := range list {
		if lit, ok := e.(*Literal); ok && lit.Val.Kind() == sqltypes.KindBool && lit.Val.Bool() {
			continue
		}
		out = append(out, e)
	}
	return out
}

// ExprResolves reports whether every column reference in e resolves in the
// schema.
func ExprResolves(e Expr, schema *sqltypes.Schema) bool {
	for _, ref := range CollectColumnRefs(e, nil) {
		if _, err := schema.ColumnIndex(ref.Table, ref.Name); err != nil {
			return false
		}
	}
	return true
}

// Flip returns the comparison that holds with the operands swapped
// (a < b is b > a); any other operator comes back unchanged.
func (op BinaryOp) Flip() BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}
