package exec

import (
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// colSet is a set of column positions in one operator's output, bit i for
// column i. Only the first 64 columns have a bit; a column from 64 on counts
// as read whatever the set says.
type colSet uint64

// allCols reads every column.
const allCols = ^colSet(0)

// has reports whether s names column i; a column from 64 on has no bit.
func (s colSet) has(i int) bool { return i < 64 && s&(1<<i) != 0 }

// with adds the columns e references, resolved in schema, to s. A reference
// that does not resolve reads everything: the kernel that evaluates e then
// meets the row engine's error over the full batch.
func (s colSet) with(e sqlparser.Expr, schema *sqltypes.Schema) colSet {
	if s == allCols {
		return s
	}
	var buf [8]*sqlparser.ColumnRef
	for _, ref := range sqlparser.CollectColumnRefs(e, buf[:0]) {
		i, err := schema.ColumnIndex(ref.Table, ref.Name)
		if err != nil {
			return allCols
		}
		if i < 64 {
			s |= 1 << i
		}
	}
	return s
}

// split cuts a set over a join's output into the sets over its left input
// (the first n columns) and its right input. A right column whose output
// position is 64 or more has no bit and stays read. The left set keeps the
// right's bits: bits past an input's width name no column and are ignored.
func (s colSet) split(n int) (left, right colSet) {
	return s, s>>n | ^(allCols >> n)
}

// joinOut is what finishing a plan fixes about a join's output: its schema,
// made once per plan (Columns stays nil until then), and the output columns
// no operator above the join reads. The kernels leave those as the all-NULL
// colbatch.Placeholder instead of gathering them, and gather nothing when
// every read column lies on one input (sidesRead). The zero value, a join
// that was never part of a finished plan, gathers every column under a
// schema concatenated per call.
type joinOut struct {
	schema sqltypes.Schema
	unread colSet
}

// fixed returns the join's output schema once the plan is finished, nil
// before.
func (o *joinOut) fixed() *sqltypes.Schema {
	if o.schema.Columns == nil {
		return nil
	}
	return &o.schema
}

// finishPlan runs once over a finished operator tree: it fixes every join's
// output schema, then walks down from the root, which reads every column,
// and records in each join what no operator above it reads. in is the tree's
// join input (the operator a Top was stacked on) and inSchema its output
// schema, whose columns the tree's topmost join shares; nil makes it
// concatenate its own. It does no work at execution time, allocates nothing,
// and costs a tree without a join one walk.
//
// What an operator reads of its input: a Filter adds its predicate's columns
// to what its consumer reads, a Sort its keys, a Limit passes its consumer's
// set through; a Project reads its items (a * reads all), an Aggregate its
// group keys and arguments, a Distinct and a ShardAggFinal everything. A
// join adds its residual (or predicate), which it evaluates over its own
// output, then splits the set between its inputs and adds each input's key.
//
// A join belongs to one tree: the planners build their joins fresh for each
// candidate and share only leaves, which hold no join.
func finishPlan(root, in Operator, inSchema *sqltypes.Schema) {
	var cols []sqltypes.Column
	if inSchema != nil {
		cols = inSchema.Columns
	}
	if fixJoinSchemas(in, cols) {
		markReads(root, allCols)
	}
}

// fixJoinSchemas sets the output schema of every join under op. cols, op's
// own output columns (nil when unknown, and then concatenated), are the
// topmost join's when op is that join or a Filter, Sort or Limit over it; a
// join below gets a view of them, since a join's output is its left input's
// columns followed by its right input's. It reports whether op's tree holds a
// join.
func fixJoinSchemas(op Operator, cols []sqltypes.Column) bool {
	var o *joinOut
	var left, right Operator // right is nil for an index join
	switch x := op.(type) {
	case *HashJoin:
		o, left, right = &x.out, x.Build, x.Probe
	case *IndexNLJoin:
		o, left = &x.out, x.Outer
	case *NestedLoopJoin:
		o, left, right = &x.out, x.Outer, x.Inner
	case *Filter, *Sort, *Limit:
		return fixJoinSchemas(inputOf(op), cols)
	default:
		in := inputOf(op)
		return in != nil && fixJoinSchemas(in, nil)
	}
	if cols == nil {
		cols = op.Schema().Columns // concatenated: o is not fixed yet
	}
	*o = joinOut{schema: sqltypes.Schema{Columns: cols}}
	ls, rs := splitSchema(op)
	fixJoinSchemas(left, ls.Columns)
	if right != nil {
		fixJoinSchemas(right, rs.Columns)
	}
	return true
}

// splitSchema cuts a finished join's output schema into views of its left input's
// columns and its right input's (an index join's inner table's).
func splitSchema(join Operator) (left, right sqltypes.Schema) {
	var rightWidth int
	switch x := join.(type) {
	case *HashJoin:
		rightWidth = width(x.Probe)
	case *IndexNLJoin:
		rightWidth = x.Inner.Schema().Len()
	case *NestedLoopJoin:
		rightWidth = width(x.Inner)
	}
	cols := join.Schema().Columns
	n := len(cols) - rightWidth
	return sqltypes.Schema{Columns: cols[:n:n]}, sqltypes.Schema{Columns: cols[n:]}
}

// width counts op's output columns without the copy a scan's Schema makes.
func width(op Operator) int {
	for {
		switch x := op.(type) {
		case *SeqScan:
			return x.Table.Schema().Len()
		case *IndexScan:
			return x.Table.Schema().Len()
		case *Filter:
			op = x.Input
		default:
			return op.Schema().Len()
		}
	}
}

// inputOf returns the input of a one-input operator, nil for any other.
func inputOf(op Operator) Operator {
	switch x := op.(type) {
	case *Filter:
		return x.Input
	case *Project:
		return x.Input
	case *Sort:
		return x.Input
	case *Limit:
		return x.Input
	case *Distinct:
		return x.Input
	case *Aggregate:
		return x.Input
	case *ShardAggFinal:
		return x.Input
	}
	return nil
}

// feedsJoin reports whether what is read of op's output reaches a join's
// gather: op is a join, or a Filter, Sort or Limit over one. Anywhere else
// the set is never looked at (a Project, an Aggregate, a Distinct or a
// ShardAggFinal below starts its own, a leaf has none), so markReads does not
// resolve expressions against op's schema, which for a scan or a projection
// costs a copy.
func feedsJoin(op Operator) bool {
	for {
		switch x := op.(type) {
		case *HashJoin, *IndexNLJoin, *NestedLoopJoin:
			return true
		case *Filter:
			op = x.Input
		case *Sort:
			op = x.Input
		case *Limit:
			op = x.Input
		default:
			return false
		}
	}
}

// markReads records in every join under op what no operator above it reads;
// read is what op's consumer reads of op's output.
func markReads(op Operator, read colSet) {
	switch x := op.(type) {
	case *HashJoin:
		read = read.with(x.Residual, &x.out.schema)
		x.out.unread = ^read
		ls, rs := splitSchema(x)
		l, r := read.split(len(ls.Columns))
		markReads(x.Build, l.with(x.BuildKey, &ls))
		markReads(x.Probe, r.with(x.ProbeKey, &rs))
		return
	case *IndexNLJoin:
		read = read.with(x.Residual, &x.out.schema)
		x.out.unread = ^read
		ls, _ := splitSchema(x)
		markReads(x.Outer, read.with(x.OuterKey, &ls))
		return
	case *NestedLoopJoin:
		read = read.with(x.Pred, &x.out.schema)
		x.out.unread = ^read
		ls, _ := splitSchema(x)
		l, r := read.split(len(ls.Columns))
		markReads(x.Outer, l)
		markReads(x.Inner, r)
		return
	}
	in := inputOf(op)
	if in == nil {
		return // a leaf
	}
	if feedsJoin(in) {
		switch x := op.(type) {
		case *Filter:
			read = read.with(x.Pred, in.Schema())
		case *Sort:
			schema := in.Schema()
			for _, k := range x.Keys {
				read = read.with(k.Expr, schema)
			}
		case *Project:
			schema := in.Schema()
			read = 0
			for _, item := range x.Items {
				if item.Star {
					read = allCols
				}
				read = read.with(item.Expr, schema)
			}
		case *Aggregate:
			schema := in.Schema()
			read = 0
			for _, g := range x.GroupBy {
				read = read.with(g, schema)
			}
			for _, a := range x.Aggs {
				read = read.with(a.Arg, schema)
			}
		case *Distinct, *ShardAggFinal:
			read = allCols
		}
	}
	markReads(in, read)
}
