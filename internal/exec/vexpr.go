package exec

import (
	"fmt"

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
// Error discipline: the vectorized evaluator computes a SUPERSET of the row
// evaluator's sub-expression evaluations (it cannot skip rows that AND/OR,
// IN, COALESCE or NULL-propagation short-circuiting would have skipped).
// Eval errors are deterministic per (expression, row), so if the row path
// would error the vectorized path errors too; callers then rerun the kernel
// through the row path, which reproduces the row-path outcome — including
// cases where only the vectorized path errors. Vectorized success therefore
// implies row-path success with identical values.

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

// vnode is a compiled vectorized expression.
type vnode interface {
	eval(b *colbatch.Batch) (*vres, error)
}

// compileExpr resolves an expression against a schema. Unsupported shapes
// (aggregates, unknown node types, unresolvable columns) return an error,
// which callers treat as "use the row path".
func compileExpr(e sqlparser.Expr, schema *sqltypes.Schema) (vnode, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &vlit{v: x.Val}, nil
	case *sqlparser.ColumnRef:
		idx, err := schema.ColumnIndex(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &vcolref{idx: idx}, nil
	case *sqlparser.BinaryExpr:
		l, err := compileExpr(x.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.Right, schema)
		if err != nil {
			return nil, err
		}
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return &vlogic{op: x.Op, left: l, right: r}, nil
		}
		return &vbinary{op: x.Op, left: l, right: r}, nil
	case *sqlparser.NotExpr:
		in, err := compileExpr(x.Inner, schema)
		if err != nil {
			return nil, err
		}
		return &vnot{inner: in}, nil
	case *sqlparser.IsNullExpr:
		in, err := compileExpr(x.Inner, schema)
		if err != nil {
			return nil, err
		}
		return &visnull{inner: in, negate: x.Negate}, nil
	case *sqlparser.InExpr:
		needle, err := compileExpr(x.Needle, schema)
		if err != nil {
			return nil, err
		}
		list := make([]vnode, len(x.List))
		for i, it := range x.List {
			if list[i], err = compileExpr(it, schema); err != nil {
				return nil, err
			}
		}
		return &vin{needle: needle, list: list, negate: x.Negate}, nil
	case *sqlparser.BetweenExpr:
		subj, err := compileExpr(x.Subject, schema)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(x.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(x.Hi, schema)
		if err != nil {
			return nil, err
		}
		return &vbetween{subj: subj, lo: lo, hi: hi, negate: x.Negate}, nil
	case *sqlparser.LikeExpr:
		subj, err := compileExpr(x.Subject, schema)
		if err != nil {
			return nil, err
		}
		return &vlike{subj: subj, pattern: x.Pattern, negate: x.Negate}, nil
	case *sqlparser.FuncExpr:
		args := make([]vnode, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = compileExpr(a, schema); err != nil {
				return nil, err
			}
		}
		if x.Name == "COALESCE" {
			return &vcoalesce{args: args}, nil
		}
		return &vfunc{name: x.Name, args: args}, nil
	default:
		return nil, fmt.Errorf("exec: no vectorized form for %T", e)
	}
}

type vlit struct {
	v   sqltypes.Value
	res vres
}

func (x *vlit) eval(b *colbatch.Batch) (*vres, error) {
	x.res = vres{n: b.Len(), tag: rConst, konst: x.v}
	return &x.res, nil
}

type vcolref struct {
	idx int
	res vres
}

func (x *vcolref) eval(b *colbatch.Batch) (*vres, error) {
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

func (x *vbinary) eval(b *colbatch.Batch) (*vres, error) {
	l, err := x.left.eval(b)
	if err != nil {
		return nil, err
	}
	r, err := x.right.eval(b)
	if err != nil {
		return nil, err
	}
	n := l.n
	lo, ro := classify(l), classify(r)
	if x.op.IsComparison() {
		if lo.ok && ro.ok {
			if out := cmpTyped(x.op, n, &lo, &ro, &x.out); out != nil {
				return out, nil
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
		return out, nil
	}
	if lo.ok && ro.ok {
		if out := arithTyped(x.op, n, &lo, &ro, &x.out); out != nil {
			return out, nil
		}
	}
	// Generic cell loop over the exact scalar applier.
	x.out.begin(n)
	for i := 0; i < n; i++ {
		v, err := sqlparser.ApplyBinary(x.op, l.value(i), r.value(i))
		if err != nil {
			return nil, err
		}
		x.out.put(i, v)
	}
	return x.out.end(), nil
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

// vlogic implements AND/OR with SQL three-valued logic. Both operands are
// fully evaluated (a superset of the row path's short-circuit; see the
// error discipline note above), then combined with the row path's exact
// truth table.
type vlogic struct {
	op          sqlparser.BinaryOp
	left, right vnode
	out         scratch
}

func (x *vlogic) eval(b *colbatch.Batch) (*vres, error) {
	l, err := x.left.eval(b)
	if err != nil {
		return nil, err
	}
	r, err := x.right.eval(b)
	if err != nil {
		return nil, err
	}
	n := l.n
	out, setNull := x.out.result(n, rBools), x.out.setNull
	and := x.op == sqlparser.OpAnd
	for i := 0; i < n; i++ {
		lnull := l.isNull(i)
		ltruthy := false
		if !lnull {
			ltruthy = sqlparser.Truthy(l.value(i))
		}
		if and && !lnull && !ltruthy {
			continue // false
		}
		if !and && !lnull && ltruthy {
			out.bools[i] = true
			continue
		}
		rnull := r.isNull(i)
		rtruthy := false
		if !rnull {
			rtruthy = sqlparser.Truthy(r.value(i))
		}
		if and {
			switch {
			case !rnull && !rtruthy:
				// false
			case lnull || rnull:
				setNull(i)
			default:
				out.bools[i] = true
			}
			continue
		}
		switch {
		case !rnull && rtruthy:
			out.bools[i] = true
		case lnull || rnull:
			setNull(i)
		default:
			// false
		}
	}
	return out, nil
}

type vnot struct {
	inner vnode
	out   scratch
}

func (x *vnot) eval(b *colbatch.Batch) (*vres, error) {
	in, err := x.inner.eval(b)
	if err != nil {
		return nil, err
	}
	n := in.n
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		if in.isNull(i) {
			x.out.setNull(i)
			continue
		}
		out.bools[i] = !sqlparser.Truthy(in.value(i))
	}
	return out, nil
}

type visnull struct {
	inner  vnode
	negate bool
	out    scratch
}

func (x *visnull) eval(b *colbatch.Batch) (*vres, error) {
	in, err := x.inner.eval(b)
	if err != nil {
		return nil, err
	}
	n := in.n
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		out.bools[i] = in.isNull(i) != x.negate
	}
	return out, nil
}

type vin struct {
	needle vnode
	list   []vnode
	negate bool
	items  []*vres // the list's results for the batch at hand
	out    scratch
}

func (x *vin) eval(b *colbatch.Batch) (*vres, error) {
	needle, err := x.needle.eval(b)
	if err != nil {
		return nil, err
	}
	items := resized(x.items, len(x.list))
	x.items = items
	for i, it := range x.list {
		if items[i], err = it.eval(b); err != nil {
			return nil, err
		}
	}
	n := needle.n
	out, setNull := x.out.result(n, rBools), x.out.setNull
	for i := 0; i < n; i++ {
		if needle.isNull(i) {
			setNull(i)
			continue
		}
		nv := needle.value(i)
		sawNull := false
		matched := false
		for _, it := range items {
			if it.isNull(i) {
				sawNull = true
				continue
			}
			if sqltypes.Compare(nv, it.value(i)) == 0 {
				matched = true
				break
			}
		}
		switch {
		case matched:
			out.bools[i] = !x.negate
		case sawNull:
			setNull(i)
		default:
			out.bools[i] = x.negate
		}
	}
	return out, nil
}

type vbetween struct {
	subj, lo, hi vnode
	negate       bool
	out          scratch
}

func (x *vbetween) eval(b *colbatch.Batch) (*vres, error) {
	subj, err := x.subj.eval(b)
	if err != nil {
		return nil, err
	}
	lo, err := x.lo.eval(b)
	if err != nil {
		return nil, err
	}
	hi, err := x.hi.eval(b)
	if err != nil {
		return nil, err
	}
	n := subj.n
	if out := x.typed(n, classify(subj), classify(lo), classify(hi)); out != nil {
		return out, nil
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
	return out, nil
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

func (x *vlike) eval(b *colbatch.Batch) (*vres, error) {
	subj, err := x.subj.eval(b)
	if err != nil {
		return nil, err
	}
	n := subj.n
	out := x.out.result(n, rBools)
	for i := 0; i < n; i++ {
		if subj.isNull(i) {
			x.out.setNull(i)
			continue
		}
		v := subj.value(i)
		if v.Kind() != sqltypes.KindString {
			return nil, fmt.Errorf("sqlparser: LIKE on non-string %s", v.Kind())
		}
		out.bools[i] = sqlparser.LikeMatch(v.Str(), x.pattern) != x.negate
	}
	return out, nil
}

type vcoalesce struct {
	args []vnode
	res  []*vres // the arguments' results for the batch at hand
	out  scratch
}

func (x *vcoalesce) eval(b *colbatch.Batch) (*vres, error) {
	args, err := evalArgs(x.args, &x.res, b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	x.out.begin(n)
	for i := 0; i < n; i++ {
		v := sqltypes.Null
		for _, a := range args {
			if !a.isNull(i) {
				v = a.value(i)
				break
			}
		}
		x.out.put(i, v)
	}
	return x.out.end(), nil
}

type vfunc struct {
	name  string
	args  []vnode
	res   []*vres          // the arguments' results for the batch at hand
	cells []sqltypes.Value // one row's argument values
	out   scratch
}

// evalArgs evaluates every argument over b into *res.
func evalArgs(nodes []vnode, res *[]*vres, b *colbatch.Batch) ([]*vres, error) {
	*res = resized(*res, len(nodes))
	for i, a := range nodes {
		var err error
		if (*res)[i], err = a.eval(b); err != nil {
			return nil, err
		}
	}
	return *res, nil
}

func (x *vfunc) eval(b *colbatch.Batch) (*vres, error) {
	args, err := evalArgs(x.args, &x.res, b)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	x.out.begin(n)
	x.cells = resized(x.cells, len(args))
	cells := x.cells
	for i := 0; i < n; i++ {
		// NULL-propagating, argument order preserved, like evalFunc.
		isNull := false
		for j, a := range args {
			v := a.value(i)
			if v.IsNull() {
				isNull = true
				break
			}
			cells[j] = v
		}
		if isNull {
			x.out.put(i, sqltypes.Null)
			continue
		}
		v, err := sqlparser.ApplyFunc(x.name, cells)
		if err != nil {
			return nil, err
		}
		x.out.put(i, v)
	}
	return x.out.end(), nil
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
// vector, collapsing NULL to false exactly like EvalBool. The vector is fresh
// and sized to the survivors: the caller hands it on (see colbatch.Batch.SelectOwned).
func (p *predicate) selection(pred sqlparser.Expr, b *colbatch.Batch) ([]int32, error) {
	if p.schema != b.Schema {
		node, err := compileExpr(pred, b.Schema)
		if err != nil {
			return nil, err
		}
		p.schema, p.node = b.Schema, node
	}
	res, err := p.node.eval(b)
	if err != nil {
		return nil, err
	}
	keep := res.bools
	if res.tag != rBools || res.nulls != nil {
		p.keep = resized(p.keep, b.Len())
		for i := range p.keep {
			p.keep[i] = res.isTrue(i)
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

// isTrue reports whether logical row i is TRUE, EvalBool's reading: NULL and
// falsy values are not.
func (r *vres) isTrue(i int) bool {
	if r.tag == rBools {
		return r.bools[i] && (r.nulls == nil || !r.nulls[i])
	}
	return !r.isNull(i) && sqlparser.Truthy(r.value(i))
}
