package exec

import (
	"fmt"
	"slices"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// This file implements the vectorized expression compiler: an expression is
// compiled once per input schema of the kernel that runs it (column
// references resolve to indices exactly once, not per row or per batch) into
// a tree of vnodes, each of which evaluates over a whole batch. Typed kernels
// cover the hot shapes — comparisons and BETWEEN over typed operands under one
// compare rule (cmpRule), int/float arithmetic, boolean three-valued logic —
// reading a column through its batch's selection where its cells lie (see
// operand), and everything else drops to a cell-at-a-time loop over the
// exported scalar appliers (sqlparser.ApplyBinary/ApplyFunc), so results are
// the row evaluator's results by construction.
//
// Those generic loops box only what has more than one kind: a comparison
// writes booleans, and arithmetic, a scalar function or COALESCE writes an
// int, float or bool vector when its non-NULL results share that kind
// (scratch.put). What still boxes: the cells of a string, mixed-kind or
// all-NULL result (rVals); the cell reads of the loops that take any kind
// (value: the generic loops themselves, BETWEEN over kinds that compare by
// kind, IN, LIKE, NOT and AND/OR); and a group's keys, once per group.
//
// A node owns its result: every evaluation refills the same vres and vectors
// (scratch), so a pipeline of windows allocates a node's vectors once, not
// once per batch. A result is therefore read before the node's next
// evaluation and never kept past it; toColumn, the one way a result leaves
// its kernel, takes the vectors away from the node, which allocates new ones
// for its next evaluation.
//
// Error discipline: a compiled expression fails exactly where the row
// evaluator (sqlparser.Eval) fails, with its error, so a kernel never needs
// the row kernel to decide its outcome. Every evaluation runs over a
// selection of the batch's logical rows (rows), the in-place selection of
// MonetDB/X100: AND and OR evaluate their right operand only on the rows the
// left leaves undecided, IN its list only where the needle is not NULL and
// has not matched yet, COALESCE an argument only where every earlier one is
// NULL, and a scalar function a later argument only where the earlier ones
// are not NULL. An operand that cannot fail (fails) runs over its parent's
// rows instead: nothing can tell the difference, and it saves the selection.
// An error carries the logical row where it happened (rowError), and every
// later evaluation (the next operand, the node's own cell loop, the next
// expression of a kernel that has several) runs only over the rows before it
// (pass). The error that comes back is therefore the least row's and, at that
// row, the first in the row evaluator's order. A node's result is defined on
// the rows it ran over that lie before its error's row; the typed kernels,
// which cannot fail, may fill every cell.

// vres is a vectorized sub-expression result: one value per logical row of
// the batch it was evaluated against.
type vres struct {
	n     int
	tag   int
	owner *scratch // the node whose scratch holds the vectors, if any

	konst  sqltypes.Value   // rConst: broadcast value
	col    *colbatch.Column // rCol: direct column of the batch
	b      *colbatch.Batch  // rCol: window mapping
	vals   []sqltypes.Value // rVals: boxed, logical space
	ints   []int64          // rInts
	floats []float64        // rFloats
	bools  []bool           // rBools
	nulls  []bool           // rInts/rFloats/rBools: null bitmap (may be nil)
}

const (
	rConst = iota
	rCol
	rVals
	rInts
	rFloats
	rBools
	rPending // scratch.begin's result before its first cell: never returned
)

// value reconstructs logical row i.
func (r *vres) value(i int) sqltypes.Value {
	switch r.tag {
	case rConst:
		return r.konst
	case rCol:
		return r.col.Value(r.b.Phys(i))
	case rVals:
		return r.vals[i]
	case rInts:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.Null
		}
		return sqltypes.NewInt(r.ints[i])
	case rFloats:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(r.floats[i])
	default:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.Null
		}
		return sqltypes.NewBool(r.bools[i])
	}
}

// isNull reports whether logical row i is SQL NULL.
func (r *vres) isNull(i int) bool {
	switch r.tag {
	case rConst:
		return r.konst.IsNull()
	case rCol:
		return r.col.IsNull(r.b.Phys(i))
	case rVals:
		return r.vals[i].IsNull()
	default:
		return r.nulls != nil && r.nulls[i]
	}
}

// toColumn materializes the result as a logical-space column that outlives
// the evaluation: a node's vectors become the column's (the node forgets
// them), a column read through a contiguous window is that window of it.
func (r *vres) toColumn() *colbatch.Column {
	if r.owner != nil && r.tag != rVals { // NewColumn copies boxed cells
		r.owner.release()
	}
	switch r.tag {
	case rConst:
		if r.konst.IsNull() {
			return colbatch.NullColumn()
		}
		vals := make([]sqltypes.Value, r.n)
		for i := range vals {
			vals[i] = r.konst
		}
		return colbatch.NewColumn(vals)
	case rCol:
		if off, ok := r.b.Contig(); ok {
			if off == 0 {
				return r.col
			}
			return r.col.Slice(off, off+r.n)
		}
		idx := make([]int32, r.n)
		for i := range idx {
			idx[i] = int32(r.b.Phys(i))
		}
		return r.col.Gather(idx)
	case rVals:
		return colbatch.NewColumn(r.vals) // analyzes the cells into vectors of its own
	case rInts:
		return colbatch.IntColumn(r.ints, r.nulls)
	case rFloats:
		return colbatch.FloatColumn(r.floats, r.nulls)
	default:
		return colbatch.BoolColumn(r.bools, r.nulls)
	}
}

// scratch is the result a node refills at every evaluation. Its vectors keep
// their capacity from batch to batch; each evaluation gets them cleared, so a
// cell the kernel skips (a NULL's payload) reads zero, as in a fresh vector.
type scratch struct {
	res    vres
	ints   []int64
	floats []float64
	bools  []bool
	vals   []sqltypes.Value
	nulls  []bool
}

// result starts the node's next result: n cells of the vector tag names, no
// NULLs yet.
func (s *scratch) result(n, tag int) *vres {
	s.res = vres{n: n, tag: tag, owner: s}
	switch tag {
	case rInts:
		s.ints = cleared(s.ints, n)
		s.res.ints = s.ints
	case rFloats:
		s.floats = cleared(s.floats, n)
		s.res.floats = s.floats
	case rBools:
		s.bools = cleared(s.bools, n)
		s.res.bools = s.bools
	case rVals:
		s.vals = cleared(s.vals, n)
		s.res.vals = s.vals
	}
	return &s.res
}

// begin, put and end build the result of a generic cell loop, which boxes
// its cells only when they are of more than one kind. begin starts n cells;
// put writes cell i, every i in increasing order. The first non-NULL cell
// picks the vector: an int, float or bool one, or boxed vals for a string.
// A cell of another kind moves the cells so far into vals (rVals). end
// returns the result: a vector, vals, or, when every cell is NULL, n boxed
// NULLs. Either way the result's column is the one NewColumn builds from its
// cells (see toColumn).
func (s *scratch) begin(n int) {
	s.res = vres{n: n, tag: rPending, owner: s}
}

func (s *scratch) put(i int, v sqltypes.Value) {
	r := &s.res
	if v.IsNull() {
		if r.tag != rPending && r.tag != rVals {
			s.setNull(i)
		}
		return // a pending or boxed cell is NULL already
	}
	tag := vecTag(v.Kind())
	if r.tag == rPending {
		s.result(r.n, tag)
		if tag != rVals {
			for j := 0; j < i; j++ {
				s.setNull(j)
			}
		}
	} else if r.tag != tag && r.tag != rVals {
		typed := *r
		s.result(typed.n, rVals)
		for j := 0; j < i; j++ {
			r.vals[j] = typed.value(j)
		}
	}
	switch r.tag {
	case rInts:
		r.ints[i] = v.Int()
	case rFloats:
		r.floats[i] = v.Float()
	case rBools:
		r.bools[i] = v.Bool()
	default:
		r.vals[i] = v
	}
}

func (s *scratch) end() *vres {
	if s.res.tag == rPending {
		s.result(s.res.n, rVals)
	}
	return &s.res
}

// vecTag is the result vector that holds cells of kind k: rVals boxes them.
func vecTag(k sqltypes.Kind) int {
	switch k {
	case sqltypes.KindInt:
		return rInts
	case sqltypes.KindFloat:
		return rFloats
	case sqltypes.KindBool:
		return rBools
	}
	return rVals
}

// release gives up the vectors: a column now holds them.
func (s *scratch) release() {
	*s = scratch{res: s.res}
}

// setNull marks cell i of the current result NULL, giving the result its
// null bitmap on the first one.
func (s *scratch) setNull(i int) {
	if s.res.nulls == nil {
		s.nulls = cleared(s.nulls, s.res.n)
		s.res.nulls = s.nulls
	}
	s.res.nulls[i] = true
}

// allNull marks every cell of the current result NULL.
func (s *scratch) allNull() {
	for i := 0; i < s.res.n; i++ {
		s.setNull(i)
	}
}

// cleared returns n zero cells, in v when it has the room.
func cleared[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	v = v[:n]
	clear(v)
	return v
}

// resized returns n cells for the caller to overwrite, in v when it has the
// room.
func resized[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// vnode is a compiled vectorized expression. eval evaluates it over the rows
// on of b and returns its result, one cell per logical row of b, and the
// least row's error when it fails (see the error discipline above).
type vnode interface {
	eval(b *colbatch.Batch, on rows) (*vres, *rowError)
}

// rows is the logical rows of a batch an evaluation runs over, in ascending
// order: 0..n-1 when sel is nil, else the rows in sel. The zero value is no
// row.
type rows struct {
	n   int
	sel []int32
}

// allRows is every logical row of b.
func allRows(b *colbatch.Batch) rows { return rows{n: b.Len()} }

func (r rows) len() int {
	if r.sel != nil {
		return len(r.sel)
	}
	return r.n
}

// at returns the k-th row.
func (r rows) at(k int) int {
	if r.sel != nil {
		return int(r.sel[k])
	}
	return k
}

// before returns the rows below row.
func (r rows) before(row int) rows {
	if r.sel == nil {
		return rows{n: min(r.n, row)}
	}
	k, _ := slices.BinarySearch(r.sel, int32(row))
	return rows{sel: r.sel[:k]}
}

// pick returns the rows of on that keep reports, listed in *buf, which keeps
// its room from one evaluation to the next.
func pick(buf *[]int32, on rows, keep func(i int) bool) rows {
	sel := (*buf)[:0]
	if cap(sel) < on.len() {
		sel = make([]int32, 0, on.len())
	}
	for k := range on.len() {
		if i := on.at(k); keep(i) {
			sel = append(sel, int32(i))
		}
	}
	if *buf = sel; len(sel) == 0 {
		return rows{}
	}
	return rows{sel: sel}
}

// rowError is an evaluation error and the logical row where it happened. Its
// text is the error's own.
type rowError struct {
	row int
	err error
}

func (e *rowError) Error() string { return e.err.Error() }
func (e *rowError) Unwrap() error { return e.err }

// pass runs the evaluations of a node, or of a kernel with several
// expressions, in the row evaluator's order: an error cuts the rows of every
// later evaluation to those before its row, so the error a pass ends with is
// the least row's and, at that row, the first in evaluation order.
type pass struct {
	on  rows
	err *rowError
}

// eval evaluates n over the pass's rows.
func (p *pass) eval(n vnode, b *colbatch.Batch) *vres { return p.evalOn(n, b, p.on) }

// evalOn evaluates n over sub, a selection of the pass's rows.
func (p *pass) evalOn(n vnode, b *colbatch.Batch, sub rows) *vres {
	res, err := n.eval(b, sub)
	if err != nil {
		p.fail(err)
	}
	return res
}

// fail records err, at one of the pass's rows, and cuts the rows before it.
func (p *pass) fail(err *rowError) {
	p.err, p.on = err, p.on.before(err.row)
}

// fails reports whether evaluating n can fail at some row: n or a node under
// it applies a scalar function, LIKE or arithmetic, or is a leaf that did not
// compile.
func fails(n vnode) bool {
	switch x := n.(type) {
	case *vlit, *vcolref:
		return false
	case *vbinary:
		if x.op.IsComparison() {
			return fails(x.left) || fails(x.right)
		}
		return !number(x)
	case *vlogic:
		return fails(x.left) || fails(x.right)
	case *vnot:
		return fails(x.inner)
	case *visnull:
		return fails(x.inner)
	case *vbetween:
		return fails(x.subj) || fails(x.lo) || fails(x.hi)
	case *vin:
		return fails(x.needle) || slices.ContainsFunc(x.list, fails)
	case *vcoalesce:
		return slices.ContainsFunc(x.args, fails)
	}
	return true
}

// number reports whether n is a number or NULL on every row, without
// failing: a numeric literal, or arithmetic over numbers (the parser reads
// -3 as 0 - 3).
func number(n vnode) bool {
	switch x := n.(type) {
	case *vlit:
		return x.v.IsNull() || x.v.IsNumeric()
	case *vbinary:
		return !x.op.IsComparison() && number(x.left) && number(x.right)
	}
	return false
}

// compileExpr resolves an expression against a schema. A leaf it has no form
// for (an unresolvable column, an aggregate, a node it does not know)
// compiles to a vfail.
func compileExpr(e sqlparser.Expr, schema *sqltypes.Schema) vnode {
	c := func(e sqlparser.Expr) vnode { return compileExpr(e, schema) }
	all := func(es []sqlparser.Expr) []vnode {
		nodes := make([]vnode, len(es))
		for i, e := range es {
			nodes[i] = c(e)
		}
		return nodes
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &vlit{v: x.Val}
	case *sqlparser.ColumnRef:
		if idx, err := schema.ColumnIndex(x.Table, x.Name); err == nil {
			return &vcolref{idx: idx}
		}
	case *sqlparser.BinaryExpr:
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return &vlogic{op: x.Op, left: c(x.Left), right: c(x.Right)}
		}
		return &vbinary{op: x.Op, left: c(x.Left), right: c(x.Right)}
	case *sqlparser.NotExpr:
		return &vnot{inner: c(x.Inner)}
	case *sqlparser.IsNullExpr:
		return &visnull{inner: c(x.Inner), negate: x.Negate}
	case *sqlparser.InExpr:
		return &vin{needle: c(x.Needle), list: all(x.List), negate: x.Negate}
	case *sqlparser.BetweenExpr:
		return &vbetween{subj: c(x.Subject), lo: c(x.Lo), hi: c(x.Hi), negate: x.Negate}
	case *sqlparser.LikeExpr:
		return &vlike{subj: c(x.Subject), pattern: x.Pattern, negate: x.Negate}
	case *sqlparser.FuncExpr:
		if x.Name == "COALESCE" {
			return &vcoalesce{args: all(x.Args)}
		}
		return &vfunc{name: x.Name, args: all(x.Args)}
	}
	_, err := sqlparser.Eval(e, nil, schema) // reads no row for these leaves
	return &vfail{err: err}
}

// vfail is a leaf compileExpr has no form for. It fails at the first row that
// reaches it with the row evaluator's error there.
type vfail struct {
	err error
	res vres
}

func (x *vfail) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	x.res = vres{n: b.Len(), tag: rConst}
	if on.len() == 0 {
		return &x.res, nil
	}
	return &x.res, &rowError{row: on.at(0), err: x.err}
}

type vlit struct {
	v   sqltypes.Value
	res vres
}

func (x *vlit) eval(b *colbatch.Batch, _ rows) (*vres, *rowError) {
	x.res = vres{n: b.Len(), tag: rConst, konst: x.v}
	return &x.res, nil
}

type vcolref struct {
	idx int
	res vres
}

func (x *vcolref) eval(b *colbatch.Batch, _ rows) (*vres, *rowError) {
	x.res = vres{n: b.Len(), tag: rCol, col: b.Cols[x.idx], b: b}
	return &x.res, nil
}

// operand is a typed view of a vres, used to pick comparison, arithmetic,
// hash and fold kernels. ok is false when the result has no uniform typed
// representation (boxed or mixed-kind), forcing the generic cell loop.
//
// Cell i of a vector operand is payload index pos(i) of its vectors (ints,
// floats, strs, bools and nulls alike): i itself, or at[i] when the operand
// reads a column through a batch's selection. A selected cell is read where it
// lies, never copied: the in-place selection vector of MonetDB/X100 (Boncz et
// al., CIDR 2005). A loop hoisted out of the per-cell checks has two twins,
// one over i and one over at.
type operand struct {
	ok      bool
	isConst bool
	kind    sqltypes.Kind // beside the bools, where it takes no word of its own
	c       sqltypes.Value
	ints    []int64
	floats  []float64
	bools   []bool
	strs    []string
	nulls   []bool
	at      []int32 // the batch's selection, when the vectors are read through it
}

func classify(r *vres) operand {
	switch r.tag {
	case rConst:
		return operand{ok: true, isConst: true, c: r.konst, kind: r.konst.Kind()}
	case rInts:
		return operand{ok: true, kind: sqltypes.KindInt, ints: r.ints, nulls: r.nulls}
	case rFloats:
		return operand{ok: true, kind: sqltypes.KindFloat, floats: r.floats, nulls: r.nulls}
	case rBools:
		return operand{ok: true, kind: sqltypes.KindBool, bools: r.bools, nulls: r.nulls}
	case rCol:
		c := r.col
		if c.Mixed != nil {
			return operand{}
		}
		if c.Kind == sqltypes.KindNull {
			return operand{ok: true, isConst: true, c: sqltypes.Null, kind: sqltypes.KindNull}
		}
		op := operand{ok: true, kind: c.Kind, ints: c.Ints, floats: c.Floats, strs: c.Strs, bools: c.Bools, nulls: c.Nulls}
		off, contig := r.b.Contig()
		if !contig {
			op.at = r.b.Sel
			return op
		}
		// A window starts the vectors at its offset. Only the start is cut:
		// a hash join's table reads its hashed columns by row id, past the
		// (empty) batch it names them by.
		if off != 0 {
			switch c.Kind {
			case sqltypes.KindInt:
				op.ints = c.Ints[off:]
			case sqltypes.KindFloat:
				op.floats = c.Floats[off:]
			case sqltypes.KindString:
				op.strs = c.Strs[off:]
			case sqltypes.KindBool:
				op.bools = c.Bools[off:]
			}
			if c.Nulls != nil {
				op.nulls = c.Nulls[off:]
			}
		}
		return op
	default:
		return operand{}
	}
}

// pos returns the payload index of cell i.
func (o *operand) pos(i int) int {
	if o.at != nil {
		return int(o.at[i])
	}
	return i
}

// null reports whether cell i of the operand is NULL.
func (o *operand) null(i int) bool {
	if o.isConst {
		return o.c.IsNull()
	}
	return o.nulls != nil && o.nulls[o.pos(i)]
}

// intAt/floatAt/strAt/boolInt read cell i; callers have checked nullness and
// kind.
func (o *operand) intAt(i int) int64 {
	if o.isConst {
		return o.c.Int()
	}
	return o.ints[o.pos(i)]
}

func (o *operand) floatAt(i int) float64 {
	if o.isConst {
		return o.c.Float()
	}
	if o.kind == sqltypes.KindInt {
		return float64(o.ints[o.pos(i)])
	}
	return o.floats[o.pos(i)]
}

func (o *operand) strAt(i int) string {
	if o.isConst {
		return o.c.Str()
	}
	return o.strs[o.pos(i)]
}

func (o *operand) boolInt(i int) int64 {
	if o.isConst {
		return o.c.Int()
	}
	return boolToInt(o.bools[o.pos(i)])
}

// numericKind reports whether cells of kind k compare numerically (through
// float64 unless both sides are int), as sqltypes.Compare does.
func numericKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindFloat
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmpRule is sqltypes.Compare's order for two non-NULL cells of typed kinds,
// the one compare rule of every typed kernel that orders cells (comparisons,
// BETWEEN, sort keys): int/int exactly, any other numeric pair through
// float64 (a NaN is equal to everything), strings lexically, bools as 0/1.
// cmpNone is a pair of kinds Compare orders by kind; the kernels leave those
// to it.
type cmpRule uint8

const (
	cmpNone cmpRule = iota
	cmpInts
	cmpFloats
	cmpStrs
	cmpBools
)

// ruleOf returns the compare rule of two typed operands.
func ruleOf(a, b *operand) cmpRule {
	switch {
	case a.kind == sqltypes.KindInt && b.kind == sqltypes.KindInt:
		return cmpInts
	case numericKind(a.kind) && numericKind(b.kind):
		return cmpFloats
	case a.kind == sqltypes.KindString && b.kind == sqltypes.KindString:
		return cmpStrs
	case a.kind == sqltypes.KindBool && b.kind == sqltypes.KindBool:
		return cmpBools
	}
	return cmpNone
}

// compare is sqltypes.Compare of cell i of a and cell j of b, neither NULL,
// under the rule of their kinds.
func (r cmpRule) compare(a *operand, i int, b *operand, j int) int {
	switch r {
	case cmpInts:
		return three(a.intAt(i), b.intAt(j))
	case cmpFloats:
		return three(a.floatAt(i), b.floatAt(j))
	case cmpStrs:
		return three(a.strAt(i), b.strAt(j))
	default:
		return three(a.boolInt(i), b.boolInt(j))
	}
}

// three is the three-way order of a and b; incomparable floats (a NaN) are
// equal, as in sqltypes.Compare.
func three[T int64 | float64 | string](a, b T) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// cmpTable maps a three-way comparison c, at index c+1, to the comparison
// operator's boolean.
func cmpTable(op sqlparser.BinaryOp) [3]bool {
	switch op {
	case sqlparser.OpEq:
		return [3]bool{false, true, false}
	case sqlparser.OpNe:
		return [3]bool{true, false, true}
	case sqlparser.OpLt:
		return [3]bool{true, false, false}
	case sqlparser.OpLe:
		return [3]bool{true, true, false}
	case sqlparser.OpGt:
		return [3]bool{false, false, true}
	default:
		return [3]bool{false, true, true}
	}
}

// cmpConst writes table[three(v, k)+1] for every cell v of a NULL-free vector:
// vals[i], or vals[at[i]] when at is not nil.
func cmpConst[T int64 | float64 | string](out []bool, vals []T, at []int32, k T, table [3]bool) {
	if at == nil {
		for i, v := range vals[:len(out)] {
			out[i] = table[three(v, k)+1]
		}
		return
	}
	for i, p := range at {
		out[i] = table[three(vals[p], k)+1]
	}
}

// betweenConst writes whether lo <= v <= hi, under three, differs from
// negate for every cell v of a NULL-free vector: vals[i], or vals[at[i]]
// when at is not nil.
func betweenConst[T int64 | float64 | string](out []bool, vals []T, at []int32, lo, hi T, negate bool) {
	if at == nil {
		for i, v := range vals[:len(out)] {
			out[i] = (three(v, lo) >= 0 && three(v, hi) <= 0) != negate
		}
		return
	}
	for i, p := range at {
		v := vals[p]
		out[i] = (three(v, lo) >= 0 && three(v, hi) <= 0) != negate
	}
}

type vbinary struct {
	op          sqlparser.BinaryOp
	left, right vnode
	out         scratch
}

func (x *vbinary) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	l, r := p.eval(x.left, b), p.eval(x.right, b)
	n := l.n
	lo, ro := classify(l), classify(r)
	if x.op.IsComparison() {
		if lo.ok && ro.ok {
			if out := cmpTyped(x.op, n, &lo, &ro, &x.out); out != nil {
				return out, p.err
			}
		}
		// Generic cell loop: ApplyBinary's comparison, which never errors,
		// written as booleans.
		out, table := x.out.result(n, rBools), cmpTable(x.op)
		for i := 0; i < n; i++ {
			if l.isNull(i) || r.isNull(i) {
				x.out.setNull(i)
				continue
			}
			out.bools[i] = table[sqltypes.Compare(l.value(i), r.value(i))+1]
		}
		return out, p.err
	}
	if lo.ok && ro.ok {
		if out := arithTyped(x.op, n, &lo, &ro, &x.out); out != nil {
			return out, p.err
		}
	}
	// Generic cell loop over the exact scalar applier.
	x.out.begin(n)
	for k := range p.on.len() {
		i := p.on.at(k)
		v, err := sqlparser.ApplyBinary(x.op, l.value(i), r.value(i))
		if err != nil {
			p.fail(&rowError{row: i, err: err})
			break
		}
		x.out.put(i, v)
	}
	return x.out.end(), p.err
}

// cmpTyped emits a boolean vector for typed operand pairs under their
// compare rule (cmpRule), into s. A NULL-free vector against a constant gets
// a branch-hoisted loop when no cell needs widening: an int vector against
// an int, a float vector against any number, a string vector against a
// string. Returns nil when the kinds have no rule.
func cmpTyped(op sqlparser.BinaryOp, n int, lo, ro *operand, s *scratch) *vres {
	// A NULL constant operand nulls every row.
	if (lo.isConst && lo.c.IsNull()) || (ro.isConst && ro.c.IsNull()) {
		out := s.result(n, rBools)
		s.allNull()
		return out
	}
	rule := ruleOf(lo, ro)
	if rule == cmpNone {
		return nil
	}
	out, table := s.result(n, rBools), cmpTable(op)
	if ro.isConst && !lo.isConst && lo.nulls == nil {
		switch {
		case rule == cmpInts:
			cmpConst(out.bools, lo.ints, lo.at, ro.c.Int(), table)
			return out
		case rule == cmpFloats && lo.kind == sqltypes.KindFloat:
			cmpConst(out.bools, lo.floats, lo.at, ro.c.Float(), table)
			return out
		case rule == cmpStrs:
			cmpConst(out.bools, lo.strs, lo.at, ro.c.Str(), table)
			return out
		}
	}
	for i := 0; i < n; i++ {
		if lo.null(i) || ro.null(i) {
			s.setNull(i)
			continue
		}
		out.bools[i] = table[rule.compare(lo, i, ro, i)+1]
	}
	return out
}

// arithTyped emits typed arithmetic for numeric operand pairs: int/int
// stays integral (except division by zero → NULL), any float widens, both
// exactly as ApplyBinary does per cell, into s. Returns nil when no typed
// kernel applies.
func arithTyped(op sqlparser.BinaryOp, n int, lo, ro *operand, s *scratch) *vres {
	switch op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
	default:
		return nil
	}
	if (lo.isConst && lo.c.IsNull()) || (ro.isConst && ro.c.IsNull()) {
		out := s.result(n, rInts)
		s.allNull()
		return out
	}
	if !numericKind(lo.kind) || !numericKind(ro.kind) {
		return nil
	}
	setNull := s.setNull
	bothInt := lo.kind == sqltypes.KindInt && ro.kind == sqltypes.KindInt
	if bothInt && op != sqlparser.OpDiv {
		out := s.result(n, rInts)
		for i := 0; i < n; i++ {
			if lo.null(i) || ro.null(i) {
				setNull(i)
				continue
			}
			l, r := lo.intAt(i), ro.intAt(i)
			switch op {
			case sqlparser.OpAdd:
				out.ints[i] = l + r
			case sqlparser.OpSub:
				out.ints[i] = l - r
			default:
				out.ints[i] = l * r
			}
		}
		return out
	}
	if bothInt {
		// Integer division: zero divisor yields NULL, like the row path.
		out := s.result(n, rInts)
		for i := 0; i < n; i++ {
			if lo.null(i) || ro.null(i) {
				setNull(i)
				continue
			}
			r := ro.intAt(i)
			if r == 0 {
				setNull(i)
				continue
			}
			out.ints[i] = lo.intAt(i) / r
		}
		return out
	}
	out := s.result(n, rFloats)
	for i := 0; i < n; i++ {
		if lo.null(i) || ro.null(i) {
			setNull(i)
			continue
		}
		l, r := lo.floatAt(i), ro.floatAt(i)
		switch op {
		case sqlparser.OpAdd:
			out.floats[i] = l + r
		case sqlparser.OpSub:
			out.floats[i] = l - r
		case sqlparser.OpMul:
			out.floats[i] = l * r
		default:
			if r == 0 {
				setNull(i)
				continue
			}
			out.floats[i] = l / r
		}
	}
	return out
}

// vlogic implements AND/OR with SQL three-valued logic: the right operand
// runs only on the rows the left leaves undecided (when it can fail; see
// fails), and the two combine under the row path's exact truth table.
type vlogic struct {
	op          sqlparser.BinaryOp
	left, right vnode
	sel         []int32 // the undecided rows
	out         scratch
}

func (x *vlogic) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	l := p.eval(x.left, b)
	settles := uint8(0) // FALSE settles an AND, TRUE an OR
	if x.op == sqlparser.OpOr {
		settles = 1
	}
	sub := p.on
	if fails(x.right) {
		sub = pick(&x.sel, p.on, func(i int) bool { return truth(l, i) != settles })
	}
	r := p.evalOn(x.right, b, sub)
	out := x.out.result(l.n, rBools)
	for k := range p.on.len() {
		i := p.on.at(k)
		v := truth(l, i)
		if v != settles {
			switch rv := truth(r, i); {
			case rv == settles:
				v = settles
			case v == 2 || rv == 2:
				v = 2
			default:
				v = 1 - settles
			}
		}
		if v == 2 {
			x.out.setNull(i)
		} else {
			out.bools[i] = v == 1
		}
	}
	return out, p.err
}

// truth is cell i's three-valued truth, EvalBool's reading but for NULL:
// 0 FALSE, 1 TRUE, 2 NULL.
func truth(r *vres, i int) uint8 {
	switch {
	case r.isNull(i):
		return 2
	case r.tag == rBools && r.bools[i], r.tag != rBools && sqlparser.Truthy(r.value(i)):
		return 1
	}
	return 0
}

type vnot struct {
	inner vnode
	out   scratch
}

func (x *vnot) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	in, err := x.inner.eval(b, on)
	n := in.n
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		if v := truth(in, i); v == 2 {
			x.out.setNull(i)
		} else {
			out.bools[i] = v == 0
		}
	}
	return out, err
}

type visnull struct {
	inner  vnode
	negate bool
	out    scratch
}

func (x *visnull) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	in, err := x.inner.eval(b, on)
	n := in.n
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		out.bools[i] = in.isNull(i) != x.negate
	}
	return out, err
}

// vin is IN and NOT IN. The list is folded in one item at a time, each item
// evaluated only on the rows whose needle is not NULL and has matched no
// earlier item (when it can fail; see fails).
type vin struct {
	needle vnode
	list   []vnode
	negate bool
	sel    []int32 // the rows still open
	out    scratch
}

func (x *vin) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	needle := p.eval(x.needle, b)
	// A row is NULL under a NULL needle; any other row holds negate until an
	// item matches it (then !negate), and is NULL while it has only met a
	// NULL item.
	out, setNull := x.out.result(needle.n, rBools), x.out.setNull
	for k := range p.on.len() {
		if i := p.on.at(k); needle.isNull(i) {
			setNull(i)
		} else {
			out.bools[i] = x.negate
		}
	}
	open := func(i int) bool { return !needle.isNull(i) && out.bools[i] == x.negate }
	for _, it := range x.list {
		sub := p.on
		if fails(it) {
			sub = pick(&x.sel, p.on, open)
		}
		item := p.evalOn(it, b, sub)
		for k := range p.on.len() {
			switch i := p.on.at(k); {
			case !open(i):
			case item.isNull(i):
				setNull(i)
			case sqltypes.Compare(needle.value(i), item.value(i)) == 0:
				out.bools[i] = !x.negate
				if out.nulls != nil {
					out.nulls[i] = false
				}
			}
		}
	}
	return out, p.err
}

type vbetween struct {
	subj, lo, hi vnode
	negate       bool
	out          scratch
}

func (x *vbetween) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	subj, lo, hi := p.eval(x.subj, b), p.eval(x.lo, b), p.eval(x.hi, b)
	n := subj.n
	if out := x.typed(n, classify(subj), classify(lo), classify(hi)); out != nil {
		return out, p.err
	}
	// Mixed kinds: the boxed cell loop.
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		if subj.isNull(i) || lo.isNull(i) || hi.isNull(i) {
			x.out.setNull(i)
			continue
		}
		v := subj.value(i)
		in := sqltypes.Compare(v, lo.value(i)) >= 0 && sqltypes.Compare(v, hi.value(i)) <= 0
		out.bools[i] = in != x.negate
	}
	return out, p.err
}

// typed is BETWEEN over typed operands, the subject compared with each bound
// under the pair's compare rule (cmpRule), as evalBetween's two Compare
// calls do; a NULL-free vector between two constants that need no widening
// gets a branch-hoisted loop. It returns nil when an operand is untyped or a
// pair has no rule.
func (x *vbetween) typed(n int, so, lo, ho operand) *vres {
	if !so.ok || !lo.ok || !ho.ok {
		return nil
	}
	s := &x.out
	if (so.isConst && so.c.IsNull()) || (lo.isConst && lo.c.IsNull()) || (ho.isConst && ho.c.IsNull()) {
		out := s.result(n, rBools)
		s.allNull()
		return out
	}
	rl, rh := ruleOf(&so, &lo), ruleOf(&so, &ho)
	if rl == cmpNone || rh == cmpNone {
		return nil
	}
	out := s.result(n, rBools)
	if !so.isConst && so.nulls == nil && lo.isConst && ho.isConst && rl == rh {
		switch {
		case rl == cmpInts:
			betweenConst(out.bools, so.ints, so.at, lo.c.Int(), ho.c.Int(), x.negate)
			return out
		case rl == cmpFloats && so.kind == sqltypes.KindFloat:
			betweenConst(out.bools, so.floats, so.at, lo.c.Float(), ho.c.Float(), x.negate)
			return out
		case rl == cmpStrs:
			betweenConst(out.bools, so.strs, so.at, lo.c.Str(), ho.c.Str(), x.negate)
			return out
		}
	}
	for i := 0; i < n; i++ {
		if so.null(i) || lo.null(i) || ho.null(i) {
			s.setNull(i)
			continue
		}
		in := rl.compare(&so, i, &lo, i) >= 0 && rh.compare(&so, i, &ho, i) <= 0
		out.bools[i] = in != x.negate
	}
	return out
}

type vlike struct {
	subj    vnode
	pattern string
	negate  bool
	out     scratch
}

func (x *vlike) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	subj := p.eval(x.subj, b)
	out := x.out.result(subj.n, rBools)
	for k := range p.on.len() {
		i := p.on.at(k)
		if subj.isNull(i) {
			x.out.setNull(i)
			continue
		}
		v := subj.value(i)
		if v.Kind() != sqltypes.KindString {
			p.fail(&rowError{row: i, err: fmt.Errorf("sqlparser: LIKE on non-string %s", v.Kind())})
			break
		}
		out.bools[i] = sqlparser.LikeMatch(v.Str(), x.pattern) != x.negate
	}
	return out, p.err
}

// vcoalesce is COALESCE: an argument is evaluated only on the rows where
// every earlier one is NULL (when it can fail; see fails).
type vcoalesce struct {
	args []vnode
	res  []*vres // the arguments' results for the batch at hand
	sel  []int32 // the rows still NULL
	out  scratch
}

func (x *vcoalesce) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	x.res = resized(x.res, len(x.args))
	for j, a := range x.args {
		sub := p.on
		if j > 0 && fails(a) {
			sub = pick(&x.sel, p.on, func(i int) bool { _, every := nullIn(x.res[:j], i); return every })
		}
		x.res[j] = p.evalOn(a, b, sub)
	}
	x.out.begin(b.Len())
	for k := range p.on.len() {
		i := p.on.at(k)
		v := sqltypes.Null
		for _, a := range x.res {
			if !a.isNull(i) {
				v = a.value(i)
				break
			}
		}
		x.out.put(i, v)
	}
	return x.out.end(), p.err
}

// nullIn reports whether row i is NULL in some result and in every one.
func nullIn(res []*vres, i int) (some, every bool) {
	every = true
	for _, r := range res {
		null := r.isNull(i)
		some, every = some || null, every && null
	}
	return some, every
}

// vfunc is a scalar function other than COALESCE, NULL-propagating like
// evalFunc: an argument is evaluated only on the rows where every earlier
// one is not NULL (when it can fail; see fails), and the function applies
// where none is.
type vfunc struct {
	name  string
	args  []vnode
	res   []*vres          // the arguments' results for the batch at hand
	cells []sqltypes.Value // one row's argument values
	sel   []int32          // the rows with no NULL argument yet
	out   scratch
}

func (x *vfunc) eval(b *colbatch.Batch, on rows) (*vres, *rowError) {
	p := pass{on: on}
	x.res = resized(x.res, len(x.args))
	for j, a := range x.args {
		sub := p.on
		if j > 0 && fails(a) {
			sub = pick(&x.sel, p.on, func(i int) bool { some, _ := nullIn(x.res[:j], i); return !some })
		}
		x.res[j] = p.evalOn(a, b, sub)
	}
	x.out.begin(b.Len())
	x.cells = resized(x.cells, len(x.args))
	for k := range p.on.len() {
		i := p.on.at(k)
		if some, _ := nullIn(x.res, i); some {
			x.out.put(i, sqltypes.Null)
			continue
		}
		for j, a := range x.res {
			x.cells[j] = a.value(i)
		}
		v, err := sqlparser.ApplyFunc(x.name, x.cells)
		if err != nil {
			p.fail(&rowError{row: i, err: err})
			break
		}
		x.out.put(i, v)
	}
	return x.out.end(), p.err
}

// predicate is a WHERE-shaped expression compiled against the schema of the
// batches it selects from, compiled again only when a batch's schema pointer
// changes (as projection is): a Filter and a join's residual compile once per
// input, not once per batch.
type predicate struct {
	schema *sqltypes.Schema
	node   vnode
	keep   []bool // scratch: the rows that pass, when the result is not plain booleans
}

// selection evaluates pred over the batch's logical rows into a selection
// vector, collapsing NULL to false exactly like EvalBool, or returns the row
// evaluator's error at the least row that fails. The vector is fresh and
// sized to the survivors: the caller hands it on (see colbatch.Batch.SelectOwned).
func (p *predicate) selection(pred sqlparser.Expr, b *colbatch.Batch) ([]int32, error) {
	if p.schema != b.Schema {
		p.schema, p.node = b.Schema, compileExpr(pred, b.Schema)
	}
	res, err := p.node.eval(b, allRows(b))
	if err != nil {
		return nil, err
	}
	keep := res.bools
	if res.tag != rBools || res.nulls != nil {
		p.keep = resized(p.keep, b.Len())
		for i := range p.keep {
			p.keep[i] = truth(res, i) == 1
		}
		keep = p.keep
	}
	// Count the survivors first: a selective predicate keeps a few rows of a
	// batch, and the vector is allocated at their number.
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	sel := make([]int32, 0, kept)
	for i, k := range keep {
		if k {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}
