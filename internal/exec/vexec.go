package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// ExecuteVectorized runs an operator tree over columnar batches. It is an
// alternative engine over the same physical plans: every operator charges
// exactly the resources its row-at-a-time Execute charges, and the rows of
// the resulting batch are bit-identical to Execute's output (same Value
// kinds and payloads, same order). Routing decisions, virtual-clock timings
// and network draws therefore cannot observe which engine ran — only the
// wall-clock cost of running the simulation changes.
//
// The tree runs as a pull pipeline (see pipe) and this is its drain: a lone
// output batch is returned uncopied, views of one set of columns (a scan's
// or an index join's windows, filtered or not) join into one view of them,
// and anything else concatenates into one batch (colbatch.Accumulator). A
// hash join's hashed side is not drained: its table indexes the batches
// themselves (see hashJoinTable).
func ExecuteVectorized(op Operator, ctx *Context) (*colbatch.Batch, error) {
	return open(op, ctx).drain()
}

// ExecuteBatches is ExecuteVectorized without the final concatenation: the
// output batches in order, at least one.
func ExecuteBatches(op Operator, ctx *Context) ([]*colbatch.Batch, error) {
	return open(op, ctx).batches()
}

// BatchStream is a leaf over batches that are still arriving (the integrator's
// fragment results): Src.Next blocks until the next one is there and returns
// nil after the last. Like Values it charges one CPU op per row.
type BatchStream struct {
	Sch   *sqltypes.Schema
	Label string
	Src   interface {
		Next() (*colbatch.Batch, error)
	}
}

// Schema implements Operator.
func (s *BatchStream) Schema() *sqltypes.Schema { return s.Sch }

// Execute implements Operator: the row engine sees the drained stream.
func (s *BatchStream) Execute(ctx *Context) (*sqltypes.Relation, error) {
	b, err := ExecuteVectorized(s, ctx)
	if err != nil {
		return nil, err
	}
	return b.ToRelation(), nil
}

// Explain implements Operator.
func (s *BatchStream) Explain() string { return "STREAM " + s.Label }

// Children implements Operator.
func (s *BatchStream) Children() []Operator { return nil }

// batchwise marks the operators that turn every batch of one input into one
// output batch. SeqScan, BatchStream and IndexNLJoin yield many batches; every
// other operator emits a single batch: leaves, and the blocking operators,
// which read their input to its end first — Sort, the index join's outer side
// and both sides of the nested-loop join collect it into one batch, the hash
// join's hashed side is indexed as the batches it came in, aggregation (plain
// and shard-final) folds it batch by batch.
type batchwise interface{ batchInput() Operator }

func (f *Filter) batchInput() Operator   { return f.Input }
func (p *Project) batchInput() Operator  { return p.Input }
func (l *Limit) batchInput() Operator    { return l.Input }
func (d *Distinct) batchInput() Operator { return d.Input }
func (j *HashJoin) batchInput() Operator { _, streamed := j.sides(); return streamed }

// scanWindow is how many rows of a stored table a SeqScan, and how many
// joined rows an IndexNLJoin, hands the pipeline at a time: every vector a
// kernel builds over a window (selections, key hashes, match lists, fold
// scratch) stays cache-sized, whatever the table's length.
const scanWindow = 2048

// pipe is one operator of a running pull pipeline: Next returns the
// operator's next output batch and nil once it is exhausted, pulling from the
// pipes of its inputs as it goes. Every pipe yields at least one batch, so a
// schema and an (empty) result always reach the consumer. A SeqScan yields
// its table in windows of scanWindow rows, all of one storage view, and an
// IndexNLJoin its output in windows of scanWindow joined rows, all of one set
// of output columns; the operators above them run window by window, each
// keeping its compiled expressions and scratch vectors from one batch to the
// next. Emitted batches are never written again: only what stays inside a
// kernel is reused.
//
// What an operator charges is a sum over its input rows, posted batch by
// batch (the integrator's merge timeline prices ctx.Res at every pull), so it
// does not depend on where the batch boundaries fall; tally keeps the one
// charge whose grouping matters, a fractional one, in the row engine's order.
//
// Every operator the planners emit has a kernel here; any other operator is an
// error, never a trip through the row engine. A kernel's error is the row
// kernel's: its expressions evaluate what the row evaluator evaluates, in
// the same order (see vexpr.go's error discipline).
type pipe struct {
	op  Operator
	ctx *Context
	in  *pipe // the input pulled batch by batch

	done    bool             // a single-batch operator has emitted its batch, a scan, index join or nested loop has run
	windows []colbatch.Batch // SeqScan, IndexNLJoin, NestedLoopJoin: the windows still to yield
	emitted int              // Limit: rows passed on so far
	seen    *vDistinctState  // Distinct
	join    *hashJoinTable   // HashJoin, once the build side is in
	proj    projection       // Project
	pred    predicate        // Filter

	charging bool     // the first charge has been made
	owed     *Context // the charges held back after a fractional one
}

func open(op Operator, ctx *Context) *pipe { return &pipe{op: op, ctx: ctx} }

// pull returns the next batch of the input operator, opening it first.
func (p *pipe) pull(input Operator) (*colbatch.Batch, error) {
	if p.in == nil {
		p.in = open(input, p.ctx)
	}
	return p.in.Next()
}

// tally returns the Context the batch at hand is charged to. While
// ctx.Res.CPUOps is a whole number, whole-number charges sum exactly in any
// grouping, so they go straight in. Once it is fractional — only an index
// descent makes it so, and the kernels that charge one post it before their
// first batch — every addition rounds, and a pipe whose first charge comes
// after that owes its charges and settles them as one addition when its input
// ends: the row engine's one addition per operator, in its order, since a
// pipe's input settles before the pipe does. A pipe decides at its first
// charge, and no fractional charge can come between its first charge and its
// last: every descent under it has been posted by then, and its siblings run
// wholly before or after it.
func (p *pipe) tally() *Context {
	if !p.charging {
		p.charging = true
		if c := p.ctx.Res.CPUOps; c != math.Trunc(c) {
			p.owed = &Context{}
		}
	}
	if p.owed != nil {
		return p.owed
	}
	return p.ctx
}

// settle posts what the pipe owes; its input has ended.
func (p *pipe) settle() {
	if p.owed != nil {
		p.ctx.Res.Add(p.owed.Res)
		p.owed = nil
	}
}

// drain collects everything p still yields into one batch (see
// colbatch.Accumulator: windows of one set of columns stay views of them).
func (p *pipe) drain() (*colbatch.Batch, error) {
	var acc colbatch.Accumulator
	for {
		b, err := p.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return acc.Finish(), nil
		}
		acc.Append(b)
	}
}

// batches collects everything p still yields, batch by batch.
func (p *pipe) batches() ([]*colbatch.Batch, error) {
	var out []*colbatch.Batch
	for {
		b, err := p.Next()
		if b == nil || err != nil {
			return out, err
		}
		out = append(out, b)
	}
}

// window yields the next of p.windows, nil after the last.
func (p *pipe) window() *colbatch.Batch {
	if len(p.windows) == 0 {
		return nil
	}
	w := &p.windows[0]
	p.windows = p.windows[1:]
	return w
}

// Next returns the operator's next output batch, nil when exhausted.
func (p *pipe) Next() (*colbatch.Batch, error) {
	ctx := p.ctx
	var in *colbatch.Batch // a batchwise operator's input batch
	switch x := p.op.(type) {
	case *SeqScan:
		if !p.done {
			// One view, one read stamp and the row kernel's whole charge,
			// with the first window; the columns a view returns never
			// change, so the windows may be cut after it is closed. An
			// empty table is one empty window.
			p.done = true
			v := x.Table.View()
			ctx.read(v)
			n := v.RowCount()
			ctx.Res.Add(x.Charge(float64(v.Pages()), float64(n)))
			p.windows = colbatch.New(x.Schema(), v.Columns(), n).Windows(scanWindow)
			v.Close()
		}
		return p.window(), nil

	case *IndexNLJoin:
		if !p.done {
			// The whole join runs, and charges, under one view of the inner
			// table before its first window is yielded: a parent that opened a
			// second view of that table while this one is open would deadlock
			// behind a waiting writer.
			p.done = true
			outer, err := open(x.Outer, ctx).drain()
			if err != nil {
				return nil, err
			}
			if p.windows, err = indexNLJoinBatch(x, outer, ctx); err != nil {
				return nil, err
			}
		}
		return p.window(), nil

	case *NestedLoopJoin:
		if !p.done {
			// Outer first, then inner: the row kernel's charge order. The
			// join runs, and charges, before its first window is yielded.
			p.done = true
			outer, err := open(x.Outer, ctx).drain()
			if err != nil {
				return nil, err
			}
			inner, err := open(x.Inner, ctx).drain()
			if err != nil {
				return nil, err
			}
			ctx.Res.Add(x.Charge(float64(outer.Len()), float64(inner.Len())))
			if p.windows, err = nestedLoopBatch(x, outer, inner); err != nil {
				return nil, err
			}
		}
		return p.window(), nil

	case *BatchStream:
		b, err := x.Src.Next()
		if err != nil || (b == nil && p.done) {
			p.settle()
			return nil, err
		}
		if b == nil {
			b = colbatch.FromRelation(sqltypes.NewRelation(x.Sch))
		}
		p.done = true
		p.tally().Res.Add(x.Charge(float64(b.Len())))
		return b, nil

	case batchwise:
		if j, ok := x.(*HashJoin); ok && p.join == nil {
			hashed, _ := j.sides()
			bs, err := open(hashed, ctx).batches()
			if err != nil {
				return nil, err
			}
			p.join = newHashJoinTable(j, bs...)
		}
		var err error
		if in, err = p.pull(x.batchInput()); in == nil || err != nil {
			if err == nil {
				p.settle()
			}
			return nil, err
		}

	default:
		if p.done {
			return nil, nil
		}
		p.done = true
	}

	switch x := p.op.(type) {
	case *Values:
		ctx.Res.Add(x.Charge(float64(len(x.Rel.Rows))))
		if x.Col != nil {
			return x.Col, nil
		}
		return colbatch.FromRelation(x.Rel), nil

	case *IndexScan:
		v := x.Table.View()
		defer v.Close()
		ctx.read(v)
		iv, positions, err := x.lookup(v)
		if err != nil {
			return nil, err
		}
		ctx.Res.Add(x.Charge(float64(iv.Len()), float64(len(positions))))
		schema := x.Schema()
		if len(positions) == 0 {
			// The row kernel's empty result: columns without a kind, which
			// ship in fewer bytes than typed empty ones.
			return colbatch.FromRelation(sqltypes.NewRelation(schema)), nil
		}
		return colbatch.NewSelected(schema, v.Columns(), positions), nil

	case *Filter:
		p.tally().Res.Add(x.Charge(float64(in.Len())))
		sel, err := p.pred.selection(x.Pred, in)
		if err != nil {
			return nil, err
		}
		return in.SelectOwned(sel), nil

	case *Project:
		p.tally().Res.Add(x.Charge(float64(in.Len())))
		return p.proj.apply(x.Items, in)

	case *Sort:
		in, err := open(x.Input, ctx).drain()
		if err != nil {
			return nil, err
		}
		ctx.Res.Add(x.Charge(float64(in.Len())))
		return sortBatch(x.Keys, in)

	case *Limit:
		// The input is still pulled to its end once the limit is reached: the
		// row engine materializes (and charges) everything under a Limit.
		n := min(x.N-p.emitted, in.Len())
		p.emitted += n
		return in.Slice(0, n), nil

	case *Distinct:
		if p.seen == nil {
			p.seen = newVDistinctState()
		}
		p.tally().Res.Add(x.Charge(float64(in.Len())))
		return distinctBatch(in, p.seen), nil

	case *Aggregate:
		folder := newAggFolder(x.GroupBy, x.Aggs)
		for {
			in, err := p.pull(x.Input)
			if err != nil {
				return nil, err
			}
			if in == nil {
				p.settle()
				return colbatch.FromRelation(folder.result(x.Schema())), nil
			}
			p.tally().Res.Add(x.Charge(float64(in.Len())))
			if err := foldBatch(folder, in); err != nil {
				return nil, err
			}
		}

	case *HashJoin:
		return p.join.probe(in, p.tally())

	case *ShardAggFinal:
		merger := x.newMerger()
		for {
			in, err := p.pull(x.Input)
			if err != nil {
				return nil, err
			}
			if in == nil {
				p.settle()
				return colbatch.FromRelation(merger.result()), nil
			}
			if err := x.checkWidth(in.Schema); err != nil {
				return nil, err
			}
			p.tally().Res.Add(x.Charge(float64(in.Len())))
			merger.fold(in.Len(), in.Value)
		}

	default:
		return nil, fmt.Errorf("exec: no columnar kernel for %T", p.op)
	}
}

// projection is what a Project keeps between batches: the select items
// compiled against the batches' schema, the output schema and, when every item
// is a bare column reference (or *), the input columns to pick — and the
// picked columns of the last input, which windows of one table share.
type projection struct {
	in, out *sqltypes.Schema
	nodes   []vnode // nil for a * item
	picks   []int   // input column per output column; nil unless refs only
	from    []*colbatch.Column
	picked  []*colbatch.Column
}

func (p *projection) compile(items []sqlparser.SelectItem, in *sqltypes.Schema) {
	nodes := make([]vnode, len(items))
	picks := make([]int, 0, len(items))
	refsOnly := true
	for i, item := range items {
		if item.Star {
			for c := range in.Columns {
				picks = append(picks, c)
			}
			continue
		}
		nodes[i] = compileExpr(item.Expr, in)
		if ref, ok := nodes[i].(*vcolref); ok {
			picks = append(picks, ref.idx)
		} else {
			refsOnly = false
		}
	}
	if !refsOnly {
		picks = nil
	}
	*p = projection{in: in, out: projectSchema(items, in), nodes: nodes, picks: picks}
}

// apply evaluates the select items over a batch, in order, each over the
// rows before an earlier item's error (pass). When every item is a bare
// column reference (or *), the output shares the input's row window and
// payload vectors — projection becomes O(1).
func (p *projection) apply(items []sqlparser.SelectItem, in *colbatch.Batch) (*colbatch.Batch, error) {
	if p.in != in.Schema {
		p.compile(items, in.Schema)
	}
	if p.picks != nil {
		if len(in.Cols) == 0 || len(p.from) != len(in.Cols) || &p.from[0] != &in.Cols[0] {
			p.from, p.picked = in.Cols, make([]*colbatch.Column, len(p.picks))
			for i, c := range p.picks {
				p.picked[i] = in.Cols[c]
			}
		}
		return in.WithColumns(p.out, p.picked), nil
	}
	cols := make([]*colbatch.Column, 0, len(p.out.Columns))
	run := pass{on: allRows(in)}
	for i, item := range items {
		if item.Star {
			for _, c := range in.Cols {
				ref := &vres{n: in.Len(), tag: rCol, col: c, b: in}
				cols = append(cols, ref.toColumn())
			}
			continue
		}
		if res := run.eval(p.nodes[i], in); run.err == nil {
			cols = append(cols, res.toColumn())
		}
	}
	if run.err != nil {
		return nil, run.err
	}
	return colbatch.New(p.out, cols, in.Len()), nil
}

// sortBatch orders the batch's logical rows by the key expressions, each
// evaluated over the rows before an earlier key's error (pass); ties keep
// input order (stable), matching Sort's row kernel.
func sortBatch(keys []sqlparser.OrderItem, in *colbatch.Batch) (*colbatch.Batch, error) {
	n := in.Len()
	kres := make([]*vres, len(keys))
	kops := make([]operand, len(keys))
	run := pass{on: allRows(in)}
	for j, k := range keys {
		kres[j] = run.eval(compileExpr(k.Expr, in.Schema), in)
		kops[j] = classify(kres[j])
	}
	if run.err != nil {
		return nil, run.err
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := int(idx[a]), int(idx[b])
		for j, k := range keys {
			c := cmpKeyAt(kres[j], &kops[j], ia, ib)
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
	return in.SelectOwned(idx), nil
}

// cmpKeyAt three-way-compares key cells ia and ib with sqltypes.Compare
// ordering: NULLs first, then the key's compare rule (cmpRule); an untyped
// key asks Compare.
func cmpKeyAt(r *vres, o *operand, ia, ib int) int {
	if !o.ok {
		return sqltypes.Compare(r.value(ia), r.value(ib))
	}
	an, bn := o.null(ia), o.null(ib)
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	return ruleOf(o, o).compare(o, ia, o, ib)
}

// colHashAt returns Value.Hash of the cell at physical index p without
// building the Value, via the sqltypes bulk hash helpers.
func colHashAt(c *colbatch.Column, p int) uint64 {
	if c.Mixed != nil {
		return c.Mixed[p].Hash()
	}
	if c.Kind == sqltypes.KindNull || (c.Nulls != nil && c.Nulls[p]) {
		return sqltypes.HashNull()
	}
	switch c.Kind {
	case sqltypes.KindInt:
		return sqltypes.HashInt64(c.Ints[p])
	case sqltypes.KindFloat:
		return sqltypes.HashFloat64(c.Floats[p])
	case sqltypes.KindString:
		return sqltypes.HashString(c.Strs[p])
	default:
		return sqltypes.HashBool(c.Bools[p])
	}
}

// vresHash returns Value.Hash of logical cell i of a sub-expression result.
func vresHash(r *vres, i int) uint64 {
	switch r.tag {
	case rConst:
		return r.konst.Hash()
	case rCol:
		return colHashAt(r.col, r.b.Phys(i))
	case rVals:
		return r.vals[i].Hash()
	case rInts:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.HashNull()
		}
		return sqltypes.HashInt64(r.ints[i])
	case rFloats:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.HashNull()
		}
		return sqltypes.HashFloat64(r.floats[i])
	default:
		if r.nulls != nil && r.nulls[i] {
			return sqltypes.HashNull()
		}
		return sqltypes.HashBool(r.bools[i])
	}
}

// batchRowHashes computes rowHash for every logical row column-by-column, in
// hs when it has the room.
func batchRowHashes(hs []uint64, b *colbatch.Batch) []uint64 {
	n := b.Len()
	hs = resized(hs, n)
	for i := range hs {
		hs[i] = 1469598103934665603
	}
	for _, c := range b.Cols {
		for i := 0; i < n; i++ {
			hs[i] = (hs[i] ^ colHashAt(c, b.Phys(i))) * 1099511628211
		}
	}
	return hs
}

// batchRowsIdentical compares logical rows i and j of (possibly different)
// batches with rowsIdentical's NULL-tolerant semantics.
func batchRowsIdentical(a *colbatch.Batch, i int, b *colbatch.Batch, j int) bool {
	pa, pb := a.Phys(i), b.Phys(j)
	for c := range a.Cols {
		ca, cb := a.Cols[c], b.Cols[c]
		an, bn := ca.IsNull(pa), cb.IsNull(pb)
		if an && bn {
			continue
		}
		if an != bn {
			return false
		}
		if sqltypes.Compare(ca.Value(pa), cb.Value(pb)) != 0 {
			return false
		}
	}
	return true
}

// vDistinctState is the columnar seen-set a Distinct keeps across batches,
// and its row-hash scratch.
type vDistinctState struct {
	seen map[uint64][]seenRow
	hs   []uint64
}

type seenRow struct {
	b *colbatch.Batch
	i int
}

func newVDistinctState() *vDistinctState {
	return &vDistinctState{seen: map[uint64][]seenRow{}}
}

// distinctBatch selects the not-seen-before rows, like distinctRel.
// Rows materialize only on hash-bucket collisions.
func distinctBatch(in *colbatch.Batch, state *vDistinctState) *colbatch.Batch {
	n := in.Len()
	state.hs = batchRowHashes(state.hs, in)
	hs := state.hs
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		h := hs[i]
		dup := false
		for _, prev := range state.seen[h] {
			if batchRowsIdentical(prev.b, prev.i, in, i) {
				dup = true
				break
			}
		}
		if !dup {
			state.seen[h] = append(state.seen[h], seenRow{b: in, i: i})
			sel = append(sel, int32(i))
		}
	}
	return in.SelectOwned(sel)
}

// foldVec is what foldBatch keeps between the batches of one aggregation: the
// group keys then the aggregate arguments (nil for COUNT(*)) compiled against
// the batches' schema, their per-batch results, and one fold window's
// scratch: each row's key hash and group.
type foldVec struct {
	schema    *sqltypes.Schema
	nodes     []vnode
	res       []*vres
	ops       []operand
	hs        []uint64
	rowGroups []*aggGroup
}

// foldWindow is how many rows of a batch foldBatch hashes, files into groups
// and folds at a time. A batch is as long as its source makes it (an index
// scan's is every match), so a window bounds the per-row scratch, 16 B a row,
// to 4 KiB.
const foldWindow = 256

// foldBatch is the vectorized counterpart of aggFolder.fold: group keys then
// aggregate arguments evaluate column-wise up front, each over the rows
// before an earlier one's error (pass), then rows fold, a window at a time
// and in row order, into the exact same group structures the row kernel
// builds.
func foldBatch(f *aggFolder, in *colbatch.Batch) error {
	n, k, v := in.Len(), len(f.groupBy), &f.vec
	if v.schema != in.Schema {
		nodes := make([]vnode, k+len(f.aggs))
		for i := range nodes {
			if i < k {
				nodes[i] = compileExpr(f.groupBy[i], in.Schema)
			} else if e := f.aggs[i-k].Arg; e != nil {
				nodes[i] = compileExpr(e, in.Schema)
			}
		}
		*v = foldVec{schema: in.Schema, nodes: nodes, res: make([]*vres, len(nodes)), ops: make([]operand, len(nodes))}
	}
	run := pass{on: allRows(in)}
	for i, node := range v.nodes {
		if node != nil {
			v.res[i] = run.eval(node, in)
			v.ops[i] = classify(v.res[i])
		}
	}
	if run.err != nil {
		return run.err
	}
	gres, gops, ares, aops := v.res[:k], v.ops[:k], v.res[k:], v.ops[k:]
	if k == 0 {
		// A scalar aggregate has one group: every row folds straight into it,
		// with no row hashes and no per-row group pointers.
		if n > 0 {
			foldArgs(f.aggs, ares, aops, f.scalarGroup(), nil, 0, n)
		}
		return nil
	}
	v.hs, v.rowGroups = resized(v.hs, min(n, foldWindow)), resized(v.rowGroups, min(n, foldWindow))
	for lo := 0; lo < n; lo += foldWindow {
		hs, rowGroups := v.hs[:min(n-lo, foldWindow)], v.rowGroups
		groupHashes(hs, gres, gops, lo)
		for j, h := range hs {
			rowGroups[j] = f.findRow(h, gres, gops, lo+j)
		}
		foldArgs(f.aggs, ares, aops, nil, rowGroups, lo, lo+len(hs))
	}
	return nil
}

// groupHashes writes into hs the key hash of rows lo.. of the group-by
// results: rowHash of the keys, folded column-major (one dispatch per
// column and window). A NULL-free typed key hashes straight off its payload,
// over the rows or through their positions.
func groupHashes(hs []uint64, gres []*vres, gops []operand, lo int) {
	hi := lo + len(hs)
	for i := range hs {
		hs[i] = 1469598103934665603
	}
	for gi, g := range gres {
		o := &gops[gi]
		switch typed := o.ok && !o.isConst && o.nulls == nil; {
		case typed && o.kind == sqltypes.KindInt && o.at == nil:
			for j, v := range o.ints[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashInt64(v)) * 1099511628211
			}
		case typed && o.kind == sqltypes.KindInt:
			for j, p := range o.at[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashInt64(o.ints[p])) * 1099511628211
			}
		case typed && o.kind == sqltypes.KindFloat && o.at == nil:
			for j, v := range o.floats[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashFloat64(v)) * 1099511628211
			}
		case typed && o.kind == sqltypes.KindFloat:
			for j, p := range o.at[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashFloat64(o.floats[p])) * 1099511628211
			}
		case typed && o.kind == sqltypes.KindString && o.at == nil:
			for j, v := range o.strs[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashString(v)) * 1099511628211
			}
		case typed && o.kind == sqltypes.KindString:
			for j, p := range o.at[lo:hi] {
				hs[j] = (hs[j] ^ sqltypes.HashString(o.strs[p])) * 1099511628211
			}
		default:
			for j := range hs {
				hs[j] = (hs[j] ^ vresHash(g, lo+j)) * 1099511628211
			}
		}
	}
}

// findRow is groupTable.find for logical row `row` of the group-by results,
// hashed h: candidates compare against the unboxed cells, so keys box once
// per group, not once per row.
func (f *aggFolder) findRow(h uint64, gres []*vres, gops []operand, row int) *aggGroup {
	grp, last := f.byHash[h], (*aggGroup)(nil)
	for grp != nil && !groupKeysMatch(grp.keys, gres, gops, row) {
		last, grp = grp, grp.next
	}
	if grp == nil {
		keys := make(sqltypes.Row, len(gres))
		for i, g := range gres {
			keys[i] = g.value(row)
		}
		grp = f.add(h, last, keys)
	}
	return grp
}

// scalarGroup returns the one group of an aggregate without GROUP BY, where
// the row kernel files it (under the hash of no keys), so that the two
// kernels may fold the batches of one aggregation in turn.
func (f *aggFolder) scalarGroup() *aggGroup {
	return f.find(rowHash(nil), nil)
}

// foldArgs folds rows lo..hi-1 of the aggregate arguments into their groups:
// all of them into one (a scalar aggregate), or row lo+j into rowGroups[j].
// It runs agg-major, so the kind of an argument is dispatched once per
// aggregate and window; each row then takes its function's update only, so
// a SUM never compares an extreme and a COUNT reads no cell.
func foldArgs(aggs []*sqlparser.AggExpr, ares []*vres, aops []operand, one *aggGroup, rowGroups []*aggGroup, lo, hi int) {
	for i, agg := range aggs {
		a, o, fn := ares[i], &aops[i], agg.Func
		switch {
		case a == nil: // COUNT(*)
			if one != nil {
				one.states[i].count += int64(hi - lo)
				continue
			}
			for _, grp := range rowGroups[:hi-lo] {
				grp.states[i].count++
			}
		case o.ok && !o.isConst && o.kind == sqltypes.KindInt:
			for row := lo; row < hi; row++ {
				p := o.pos(row)
				if o.nulls != nil && o.nulls[p] {
					continue
				}
				switch s := stateOf(one, rowGroups, row-lo, i); fn {
				case sqlparser.AggCount:
					s.count++
				case sqlparser.AggSum, sqlparser.AggAvg:
					s.sumInt64(o.ints[p])
				case sqlparser.AggMin, sqlparser.AggMax:
					s.extInt64(fn, o.ints[p])
				}
			}
		case o.ok && !o.isConst && o.kind == sqltypes.KindFloat:
			for row := lo; row < hi; row++ {
				p := o.pos(row)
				if o.nulls != nil && o.nulls[p] {
					continue
				}
				switch s := stateOf(one, rowGroups, row-lo, i); fn {
				case sqlparser.AggCount:
					s.count++
				case sqlparser.AggSum, sqlparser.AggAvg:
					s.sumFloat64(o.floats[p])
				case sqlparser.AggMin, sqlparser.AggMax:
					s.extFloat64(fn, o.floats[p])
				}
			}
		case fn == sqlparser.AggCount:
			for row := lo; row < hi; row++ {
				if !a.isNull(row) {
					stateOf(one, rowGroups, row-lo, i).count++
				}
			}
		default:
			for row := lo; row < hi; row++ {
				stateOf(one, rowGroups, row-lo, i).add(fn, a.value(row))
			}
		}
	}
}

// stateOf is the state of aggregate i that the window's row j folds into.
func stateOf(one *aggGroup, rowGroups []*aggGroup, j, i int) *aggState {
	if one != nil {
		return &one.states[i]
	}
	return &rowGroups[j].states[i]
}

// groupKeysMatch is rowsIdentical between a group's boxed keys and logical
// row `row` of the group-by results, without boxing the candidate. The typed
// fast paths replicate sqltypes.Compare exactly — in particular floats use
// !(a<b || a>b), which like Compare treats NaN as equal to everything.
func groupKeysMatch(keys sqltypes.Row, gres []*vres, gops []operand, row int) bool {
	for i, g := range gres {
		k := keys[i]
		if g.isNull(row) {
			if !k.IsNull() {
				return false
			}
			continue
		}
		if k.IsNull() {
			return false
		}
		if o := &gops[i]; o.ok && !o.isConst {
			p := o.pos(row)
			switch o.kind {
			case sqltypes.KindInt:
				if k.Kind() == sqltypes.KindInt {
					if k.Int() != o.ints[p] {
						return false
					}
					continue
				}
			case sqltypes.KindFloat:
				if k.Kind() == sqltypes.KindFloat {
					a, b := o.floats[p], k.Float()
					if a < b || a > b {
						return false
					}
					continue
				}
			case sqltypes.KindString:
				if k.Kind() == sqltypes.KindString {
					if k.Str() != o.strs[p] {
						return false
					}
					continue
				}
			case sqltypes.KindBool:
				if k.Kind() == sqltypes.KindBool {
					if k.Bool() != o.bools[p] {
						return false
					}
					continue
				}
			}
		}
		if sqltypes.Compare(k, g.value(row)) != 0 {
			return false
		}
	}
	return true
}

// keyHashes returns Value.Hash of every logical cell of a join key, in hs when
// it has the room: the index join's outer keys, since its index is keyed by
// the hash. NULL cells get an arbitrary value: join kernels skip them before
// looking at the hash.
func keyHashes(hs []uint64, r *vres, o *operand) []uint64 {
	hs = resized(hs, r.n)
	for i := range hs {
		hs[i] = keyHash(r, o, i)
	}
	return hs
}

// keyHash is Value.Hash of the non-NULL cell i of a join key: typed vectors
// hash straight off their payload, read through positions (operand.at) when
// the operand has them.
func keyHash(r *vres, o *operand, i int) uint64 {
	if o.ok && !o.isConst {
		p := o.pos(i)
		switch o.kind {
		case sqltypes.KindInt:
			return sqltypes.HashInt64(o.ints[p])
		case sqltypes.KindFloat:
			return sqltypes.HashFloat64(o.floats[p])
		case sqltypes.KindString:
			return sqltypes.HashString(o.strs[p])
		case sqltypes.KindBool:
			return sqltypes.HashBool(o.bools[p])
		}
	}
	return vresHash(r, i)
}

// keysEqual reports sqltypes.Compare(l[li], r[ri]) == 0 for two non-NULL key
// cells (logical rows), under their compare rule (cmpRule) when both sides
// are typed. Every other pairing boxes and asks Compare.
func keysEqual(l *vres, lo *operand, li int, r *vres, ro *operand, ri int) bool {
	if lo.ok && ro.ok {
		if rule := ruleOf(lo, ro); rule != cmpNone {
			return rule.compare(lo, li, ro, ri) == 0
		}
	}
	return sqltypes.Compare(l.value(li), r.value(ri)) == 0
}

// physOf maps logical row indices of b to physical positions, in place.
func physOf(b *colbatch.Batch, idx []int32) []int32 {
	if off, ok := b.Contig(); ok && off == 0 {
		return idx
	}
	for i, l := range idx {
		idx[i] = int32(b.Phys(int(l)))
	}
	return idx
}

// errJoinRows marks a join output past colbatch.MaxRows, or a hashed side
// too long for the hash table's int32 row ids: a row position cannot name
// them.
var errJoinRows = errors.New("exec: join output passes the row bound")

// joinRows refuses a join output of n rows past colbatch.MaxRows. The
// kernels ask it as their position lists grow: the hash probe after each
// streamed row, the nested-loop kernel before each block's pairs join its
// lists, the index join on its counted fetches, and joinedBatch on every
// gather.
func joinRows(n int) error {
	if n > colbatch.MaxRows {
		return fmt.Errorf("%w: %d rows, at most %d", errJoinRows, n, colbatch.MaxRows)
	}
	return nil
}

// joinedBatch gathers the matched (left, right) physical positions into one
// contiguous batch of left columns followed by right columns, applies the
// residual predicate (none when residual is nil) and returns the surviving
// rows. The columns in unread (the join's: nothing above it reads them, see
// finishPlan) are the placeholder; the residual's own columns are never
// among them. More pairs than colbatch.MaxRows are refused (joinRows). It
// is the output of a join read on both sides; see sidesRead for the others.
func joinedBatch(schema *sqltypes.Schema, left []*colbatch.Column, lPhys []int32, right []*colbatch.Column, rPhys []int32, residual sqlparser.Expr, pred *predicate, unread colSet) (*colbatch.Batch, error) {
	if err := joinRows(len(lPhys)); err != nil {
		return nil, err
	}
	out := colbatch.New(schema, colbatch.GatherJoined(left, lPhys, right, rPhys, uint64(unread)), len(lPhys))
	return residualOf(out, residual, pred)
}

// residualOf keeps the rows of a join's output that pass its residual, all
// of them when there is none.
func residualOf(out *colbatch.Batch, residual sqlparser.Expr, pred *predicate) (*colbatch.Batch, error) {
	if residual == nil {
		return out, nil
	}
	sel, err := pred.selection(residual, out)
	if err != nil {
		return nil, err
	}
	return out.SelectOwned(sel), nil
}

// sidesRead reports which inputs of a join hold a column that is read above
// it (unread is the join's mask, finishPlan's; the residual or predicate is
// among the readers): the left input's output columns are [0, lw), the right
// input's [lw, n). A join read on one side copies no cell: its output is that
// input's own columns read through the join's position list for that side,
// every other column the placeholder (sidedColumns). A join read on neither
// side is n rows of placeholders with no list at all, and only a join read on
// both sides gathers (joinedBatch). Each kernel builds only the lists its
// output reads through.
func sidesRead(unread colSet, lw, n int) (left, right bool) {
	for i := 0; i < n; i++ {
		if !unread.has(i) {
			if i >= lw {
				return left, true
			}
			left = true
		}
	}
	return left, false
}

// sidedColumns are the columns of a join output read on one side: the read
// input's columns where they are read (its first at output position at) and
// colbatch.Placeholder everywhere else, every column of it for a join read on
// neither side. The set is kept with the input columns it was made for, so
// that the outputs a kernel makes over one set of input columns share their
// columns pointer for pointer: a drain, a Sort or a join above joins them
// as views (colbatch.SharedColumns), with no copy.
type sidedColumns struct {
	src, cols []*colbatch.Column
}

// over returns the output columns, n of them, over src at output position at.
func (s *sidedColumns) over(src []*colbatch.Column, at, n int, unread colSet) []*colbatch.Column {
	if s.cols != nil && slices.Equal(s.src, src) {
		return s.cols
	}
	cols := make([]*colbatch.Column, n)
	for i := range cols {
		cols[i] = colbatch.Placeholder()
		if c := i - at; c >= 0 && c < len(src) && !unread.has(i) {
			cols[i] = src[c]
		}
	}
	s.src, s.cols = src, cols
	return cols
}

// hashJoinTable is a hash join's hashed side (Build, or Probe under
// BuildRight), built once and probed by every batch of the streamed side: one
// bucket-contiguous array of hashed row ids, the "unchained" layout of Birler
// et al. (DaMoN 2024). Bucket b's rows are ids[offs[b]:offs[b+1]]; a counting
// pass, a prefix sum over the offsets and one scatter in input order build
// it, so a bucket lists its rows in the hashed side's input order and every
// streamed row's matches come out in the row kernel's order. Nothing per row
// is kept beside the ids: no hashes, no links.
//
// A row id is a physical position in the hashed columns when the key is a
// bare column and the hashed batches all read one set of columns (a scan's
// windows, filtered or not): they are never concatenated. Any other hashed
// side is concatenated first, its key evaluated over the result, and a row id
// is a logical row of it (rows maps it to its position).
//
// Every key buckets by the low bits of its Value.Hash, and a pair follows the
// row kernel's rule, its map keyed by Value.Hash: equal hashes AND Compare
// equal (Compare alone would also pair NaN with every number). So every
// partner of a streamed cell sits in the cell's own bucket. The probe
// compares keys first and hashes the hashed row's key only for a key-equal
// candidate whose kinds do not already imply equal hashes (paired).
//
// A typed int hashed key whose non-NULL keys span fewer values than the hash
// layout has buckets (hi − lo < 2^bits) is addressed directly: key k's bucket
// is k − lo, so the table has no more offsets than the hash layout would and
// its build hashes nothing. A direct bucket lists exactly the rows whose key
// is k, in input order, so a typed int streamed key takes every row of its
// bucket as a match, with no hash and no compare. Any other streamed kind
// (a float, a boxed or a constant key) pairs by hash under the row kernel's
// rule, so the first such batch builds the hash layout beside the direct one
// and probes through it.
type hashJoinTable struct {
	j *HashJoin
	// The output schema (build columns then probe columns), the streamed key
	// compiled against the streamed batches' schema, the residual compiled
	// against the output schema, per-batch scratch (the match lists the
	// output reads through) and the columns of an output read on one side.
	schema, sschema *sqltypes.Schema
	snode           vnode
	residual        predicate
	hIdx, sIdx      []int32
	sided           sidedColumns
	// The buckets, and what a row id reads.
	offs, ids []int32
	spans     []*colbatch.Batch // every row id in input order: Phys of each span's rows
	rows      colbatch.Batch    // the hashed columns; Phys maps a row id to its position in them
	hres      vres              // the hashed key, read by row id
	hops      operand
	bits      uint // log2 of the bucket count
	// err is the hashed key's error, or a hashed side past 32-bit row ids
	// (errJoinRows): the first probe returns it, once both inputs have run,
	// as the row kernel does.
	err *rowError
	// direct is set when offs/ids are addressed by key. With it the table is
	// 736 B, which with its 8 B allocation header fits the 768 B size class
	// the table had before it: four words more cost every hash join 128 B.
	direct *directKeys
	// pending is the hashed side's rows, charged with the first streamed
	// batch so that a single-batch join adds to ctx.Res once, as the row
	// kernel does.
	pending float64
}

// keys returns the join's key over the hashed side and over the streamed one.
func (t *hashJoinTable) keys() (hashed, streamed sqlparser.Expr) {
	if t.j.BuildRight {
		return t.j.ProbeKey, t.j.BuildKey
	}
	return t.j.BuildKey, t.j.ProbeKey
}

// newHashJoinTable builds the table over the hashed input's batches, at least
// one, in the order the input yielded them.
func newHashJoinTable(j *HashJoin, hashed ...*colbatch.Batch) *hashJoinTable {
	hn := 0
	for _, b := range hashed {
		hn += b.Len()
	}
	t := &hashJoinTable{j: j, schema: j.Schema(), pending: float64(hn)}
	if hn >= math.MaxInt32 {
		t.err = &rowError{err: fmt.Errorf("%w: a hashed side of %d rows, at most %d", errJoinRows, hn, math.MaxInt32-1)}
		return t
	}
	hkey, _ := t.keys()
	hnode := compileExpr(hkey, hashed[0].Schema)
	if ref, bare := hnode.(*vcolref); bare {
		if cols, ok := colbatch.SharedColumns(hashed); ok {
			t.rows = colbatch.Batch{Schema: hashed[0].Schema, Cols: cols}
			t.hres = vres{tag: rCol, col: cols[ref.idx], b: &t.rows}
			t.spans = hashed
		}
	}
	if t.spans == nil {
		var acc colbatch.Accumulator
		for _, b := range hashed {
			acc.Append(b)
		}
		t.rows = *acc.Finish()
		hres, err := hnode.eval(&t.rows, allRows(&t.rows))
		if err != nil {
			t.err = err
			return t
		}
		t.hres = *hres
		t.spans = []*colbatch.Batch{colbatch.New(nil, nil, hn)}
	}
	t.hops = classify(&t.hres)
	for 1<<t.bits < hn {
		t.bits++
	}
	if lo, hi, ok := t.denseRange(); ok {
		t.direct = &directKeys{lo: lo}
		t.offs, t.ids = t.layout(int(uint64(hi)-uint64(lo))+1, t.slot)
		return t
	}
	t.offs, t.ids = t.layout(1<<t.bits, t.bucket)
	return t
}

// directKeys is what a direct table keeps beside offs/ids: the least key, and
// the hash layout built by the first streamed batch whose key is not a typed
// int. It sits behind a pointer so that a hash-layout table grows by one word,
// which keeps it in its allocation size class.
type directKeys struct {
	lo          int64
	hoffs, hids []int32
}

// denseRange returns the least and the greatest non-NULL hashed key when the
// key is a typed int vector with a non-NULL cell and hi − lo < 2^bits (taken
// unsigned, so MinInt64 with MaxInt64 is past it). The scan stops at the
// first key that takes the range past the bound: a sparse key learns it is
// sparse within a few rows.
func (t *hashJoinTable) denseRange() (lo, hi int64, ok bool) {
	o := &t.hops
	if !o.ok || o.isConst || o.kind != sqltypes.KindInt {
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, s := range t.spans {
		for i, sn := 0, s.Len(); i < sn; i++ {
			if id := s.Phys(i); !t.hres.isNull(id) {
				k := o.ints[o.pos(id)]
				lo, hi, ok = min(lo, k), max(hi, k), true
				if uint64(hi)-uint64(lo) >= 1<<t.bits {
					return 0, 0, false
				}
			}
		}
	}
	return lo, hi, ok
}

// layout files every non-NULL hashed row id under bucket(id), one of nb
// buckets: a counting pass, a prefix sum over the nb+1 offsets and one
// scatter in input order.
func (t *hashJoinTable) layout(nb int, bucket func(id int) int) (offs, ids []int32) {
	offs, n := make([]int32, nb+1), 0
	for _, s := range t.spans {
		for i, sn := 0, s.Len(); i < sn; i++ {
			if id := s.Phys(i); !t.hres.isNull(id) {
				offs[bucket(id)]++
				n++
			}
		}
	}
	sum := int32(0)
	for b, c := range offs {
		offs[b], sum = sum, sum+c
	}
	ids = make([]int32, n)
	for _, s := range t.spans {
		for i, sn := 0, s.Len(); i < sn; i++ {
			if id := s.Phys(i); !t.hres.isNull(id) {
				b := bucket(id)
				ids[offs[b]] = int32(id)
				offs[b]++
			}
		}
	}
	// Each bucket's cursor now stands where the next bucket starts.
	copy(offs[1:], offs[:len(offs)-1])
	offs[0] = 0
	return offs, ids
}

// slot returns the direct bucket of the hashed row id, whose key is not NULL.
func (t *hashJoinTable) slot(id int) int {
	return int(uint64(t.hops.ints[t.hops.pos(id)]) - uint64(t.direct.lo))
}

// bucket returns the hash bucket of the hashed row id, whose key is not NULL.
func (t *hashJoinTable) bucket(id int) int {
	return t.hashBucket(keyHash(&t.hres, &t.hops, id))
}

// hashBucket files a key by the low bits of its Value.Hash.
func (t *hashJoinTable) hashBucket(h uint64) int { return int(h & (1<<t.bits - 1)) }

// paired reports whether hashed row id pairs with streamed cell i, whose
// hash is h, under the row kernel's rule: Compare equal and equal hashes. Two
// typed cells of one kind that are equal have equal hashes (±0 included), so
// the hashed row's key is hashed only for a pair the rule could still refuse:
// across kinds, or where a NaN, which Compare calls equal to every number,
// is involved.
func (t *hashJoinTable) paired(id int, sres *vres, so *operand, i int, h uint64) bool {
	ho := &t.hops
	if ho.ok && so.ok && !ho.isConst && !so.isConst && ho.kind == so.kind {
		hp, sp := ho.pos(id), so.pos(i)
		switch ho.kind {
		case sqltypes.KindInt:
			return ho.ints[hp] == so.ints[sp]
		case sqltypes.KindFloat:
			a, b := ho.floats[hp], so.floats[sp]
			if a == b || (a == a && b == b) {
				return a == b
			}
			return sqltypes.HashFloat64(a) == h
		case sqltypes.KindString:
			return ho.strs[hp] == so.strs[sp]
		case sqltypes.KindBool:
			return ho.bools[hp] == so.bools[sp]
		}
	}
	return keysEqual(&t.hres, ho, id, sres, so, i) && keyHash(&t.hres, ho, id) == h
}

// probe joins one streamed batch and charges the join for it, the hashed
// rows with the first batch.
func (t *hashJoinTable) probe(in *colbatch.Batch, ctx *Context) (*colbatch.Batch, error) {
	out, err := t.probeBatch(in)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(t.j.Charge(t.pending, float64(in.Len()), float64(out.Len())))
	t.pending = 0
	return out, nil
}

// probeBatch is the columnar probe: candidates in streamed order, then the
// residual filter over the output (sidesRead: the gathered pairs, or one
// side's own columns through its match list, or placeholders). It keeps the
// match list of a side only when the output reads that side. A streamed key
// that fails stops the candidates at its row, so the residual runs only over
// the pairs of the rows before it, as in the row kernel, and its error, at an
// earlier row, comes first.
func (t *hashJoinTable) probeBatch(in *colbatch.Batch) (out *colbatch.Batch, err error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.sschema != in.Schema {
		_, skey := t.keys()
		t.sschema, t.snode = in.Schema, compileExpr(skey, in.Schema)
	}
	sres, kerr := t.snode.eval(in, allRows(in))
	sn := in.Len()
	if kerr != nil {
		sn = kerr.row
		defer func() {
			if err == nil {
				out, err = nil, kerr
			}
		}()
	}
	sops := classify(sres)
	// The output's columns are the hashed side's, then the streamed side's,
	// unless it builds right.
	unread, width, lw := t.j.out.unread, len(t.rows.Cols)+len(in.Cols), len(t.rows.Cols)
	hAt, sAt := 0, lw
	if t.j.BuildRight {
		lw = len(in.Cols)
		hAt, sAt = lw, 0
	}
	keepH, keepS := sidesRead(unread, lw, width)
	if t.j.BuildRight {
		keepH, keepS = keepS, keepH
	}
	// Room for one match per row of the first streamed batch; later batches
	// reuse what it grew to.
	if keepH && t.hIdx == nil {
		t.hIdx = make([]int32, 0, in.Len())
	}
	if keepS && t.sIdx == nil {
		t.sIdx = make([]int32, 0, in.Len())
	}
	offs, ids, hIdx, sIdx, n := t.offs, t.ids, t.hIdx[:0], t.sIdx[:0], 0
	d := t.direct
	dense := d != nil && sops.ok && !sops.isConst && sops.kind == sqltypes.KindInt
	rehash := d != nil && !dense // switch to the hash layout at the first non-NULL key
	for i := 0; i < sn; i++ {
		if sres.isNull(i) {
			continue
		}
		if dense {
			// Every row of the key's bucket is a match.
			b := uint64(sops.ints[sops.pos(i)]) - uint64(d.lo)
			if b >= uint64(len(offs)-1) {
				continue
			}
			bucket := ids[offs[b]:offs[b+1]]
			if keepH {
				hIdx = append(hIdx, bucket...)
			}
			if keepS {
				for range bucket {
					sIdx = append(sIdx, int32(i))
				}
			}
			n += len(bucket)
		} else {
			if rehash {
				if d.hoffs == nil {
					d.hoffs, d.hids = t.layout(1<<t.bits, t.bucket)
				}
				offs, ids, rehash = d.hoffs, d.hids, false
			}
			h := keyHash(sres, &sops, i)
			b := t.hashBucket(h)
			for _, id := range ids[offs[b]:offs[b+1]] {
				if t.paired(int(id), sres, &sops, i, h) {
					if keepH {
						hIdx = append(hIdx, id)
					}
					if keepS {
						sIdx = append(sIdx, int32(i))
					}
					n++
				}
			}
		}
		if n > colbatch.MaxRows {
			return nil, joinRows(n)
		}
	}
	t.hIdx, t.sIdx = hIdx, sIdx
	switch {
	case keepH && keepS && t.j.BuildRight:
		return joinedBatch(t.schema, in.Cols, physOf(in, sIdx), t.rows.Cols, physOf(&t.rows, hIdx), t.j.Residual, &t.residual, unread)
	case keepH && keepS:
		return joinedBatch(t.schema, t.rows.Cols, physOf(&t.rows, hIdx), in.Cols, physOf(in, sIdx), t.j.Residual, &t.residual, unread)
	}
	// The match lists are scratch, rewritten for the next streamed batch, so
	// the output reads through a copy it owns.
	switch {
	case keepH:
		out = colbatch.NewSelected(t.schema, t.sided.over(t.rows.Cols, hAt, width, unread), physOf(&t.rows, slices.Clone(hIdx)))
	case keepS:
		out = colbatch.NewSelected(t.schema, t.sided.over(in.Cols, sAt, width, unread), physOf(in, slices.Clone(sIdx)))
	default:
		out = colbatch.New(t.schema, t.sided.over(nil, 0, width, unread), n)
	}
	return residualOf(out, t.j.Residual, &t.residual)
}

// indexNLJoinBatch is the columnar index nested-loop join: the outer key
// evaluates once over the whole outer batch, and every non-NULL key probes the
// index by its hash (exactly the bucket LookupEq reads) — index and columns
// read through one view of the inner table. A counting pass sizes the output
// once, exactly: the gathered columns of a join read on both sides
// (gatheredWindows), or the one list of positions an output read on one side
// reads that side's own columns through (sidesRead), or nothing for an output
// read on neither. The output is cut into windows of scanWindow joined rows,
// each filtered by the residual on its own. It charges the row kernel's
// formula over the same probe and fetch counts, before the caller yields a
// window.
func indexNLJoinBatch(j *IndexNLJoin, outer *colbatch.Batch, ctx *Context) ([]colbatch.Batch, error) {
	v := j.Inner.View()
	defer v.Close()
	iv, err := v.Index(j.Index)
	if err != nil {
		return nil, err
	}
	// Every outer key evaluates before any residual, as in the row kernel.
	kres, kerr := compileExpr(j.OuterKey, outer.Schema).eval(outer, allRows(outer))
	if kerr != nil {
		return nil, kerr
	}
	kops := classify(kres)
	khs := keyHashes(nil, kres, &kops)
	probes, fetches := 0, 0
	for i, on := 0, outer.Len(); i < on; i++ {
		if !kres.isNull(i) {
			probes++
			fetches += iv.CountEqHash(khs[i])
		}
	}
	if err := joinRows(fetches); err != nil {
		return nil, err
	}
	inner, schema, unread := v.Columns(), j.Schema(), j.out.unread
	width := len(outer.Cols) + len(inner)
	var windows []colbatch.Batch
	var sided sidedColumns
	switch left, right := sidesRead(unread, len(outer.Cols), width); {
	case left && right:
		windows = gatheredWindows(schema, outer, kres, khs, iv, inner, fetches, unread)
	case right:
		// One list of every match's inner position, at its exact size.
		iPos := make([]int32, 0, fetches)
		for o, on := 0, outer.Len(); o < on; o++ {
			if !kres.isNull(o) {
				iPos = iv.AppendEqHash(iPos, khs[o], 0, iv.CountEqHash(khs[o]))
			}
		}
		windows = colbatch.NewSelected(schema, sided.over(inner, len(outer.Cols), width, unread), iPos).Windows(scanWindow)
	case left:
		oIdx := make([]int32, 0, fetches)
		for o, on := 0, outer.Len(); o < on; o++ {
			if !kres.isNull(o) {
				for p, n := int32(outer.Phys(o)), iv.CountEqHash(khs[o]); n > 0; n-- {
					oIdx = append(oIdx, p)
				}
			}
		}
		windows = colbatch.NewSelected(schema, sided.over(outer.Cols, 0, width, unread), oIdx).Windows(scanWindow)
	default:
		windows = colbatch.New(schema, sided.over(nil, 0, width, unread), fetches).Windows(scanWindow)
	}
	if j.Residual != nil {
		var residual predicate
		for w := range windows {
			sel, err := residual.selection(j.Residual, &windows[w])
			if err != nil {
				return nil, err
			}
			windows[w] = *windows[w].SelectOwned(sel)
		}
	}
	ctx.read(v)
	ctx.Res.Add(j.Charge(float64(iv.Len()), float64(probes), float64(fetches)))
	return windows, nil
}

// gatheredWindows is the output of an index join read on both sides: its
// columns allocated once at the fetches' count (colbatch.JoinedColumns), then
// filled a window of scanWindow rows at a time (the outer columns and the
// inner table's columns at the matched positions), so no match list the
// kernel builds grows past a window.
func gatheredWindows(schema *sqltypes.Schema, outer *colbatch.Batch, kres *vres, khs []uint64, iv storage.IndexView, inner []*colbatch.Column, fetches int, unread colSet) []colbatch.Batch {
	cols := colbatch.JoinedColumns(outer.Cols, inner, fetches, uint64(unread))
	windows := colbatch.New(schema, cols, fetches).Windows(scanWindow)
	oIdx, iPos := make([]int32, 0, min(fetches, scanWindow)), make([]int32, 0, min(fetches, scanWindow))
	o, from := 0, 0 // the outer row being fetched and how many of its matches are out
	for w := range windows {
		oIdx, iPos = oIdx[:0], iPos[:0]
		for room := windows[w].Len(); room > 0; {
			h := khs[o]
			n := 0
			if !kres.isNull(o) {
				n = iv.CountEqHash(h)
			}
			take := min(n-from, room)
			iPos = iv.AppendEqHash(iPos, h, from, from+take)
			for range take {
				oIdx = append(oIdx, int32(outer.Phys(o)))
			}
			room -= take
			if from += take; from == n {
				o, from = o+1, 0
			}
		}
		colbatch.FillJoined(cols, w*scanWindow, outer.Cols, oIdx, inner, iPos)
	}
	return windows
}

// nestedLoopBlock bounds the candidate pairs the nested-loop kernel gathers
// at once, so its working set is the output plus one block, never the whole
// outer × inner product.
const nestedLoopBlock = 4096

// nestedLoopBatch is the columnar nested-loop join: candidate pairs in the row
// kernel's outer-major order, built a block of outer rows at a time, each
// block filtered by the predicate over its candidates. Read on both sides
// (sidesRead), the surviving pairs are gathered once into one output
// (nestedLoopGathered). Read on one side, each block's survivors are a window
// over that side's own columns, its list the block's selection composed onto
// the block's positions, and without a predicate the output is one list of the
// whole product; read on neither, the survivors are counted. The pairs are
// counted against colbatch.MaxRows before the lists grow: the whole product up
// front when there is no predicate, each block's survivors otherwise.
func nestedLoopBatch(j *NestedLoopJoin, outer, inner *colbatch.Batch) ([]colbatch.Batch, error) {
	schema, unread := j.Schema(), j.out.unread
	on, in := outer.Len(), inner.Len()
	if j.Pred == nil {
		if err := joinRows(on * in); err != nil {
			return nil, err
		}
	}
	width := len(outer.Cols) + len(inner.Cols)
	left, right := sidesRead(unread, len(outer.Cols), width)
	if left && right {
		out, err := nestedLoopGathered(j, schema, outer, inner)
		if err != nil {
			return nil, err
		}
		return []colbatch.Batch{*out}, nil
	}
	var src []*colbatch.Column // the read side's columns, at output position at
	at := 0
	switch {
	case left:
		src = outer.Cols
	case right:
		src, at = inner.Cols, len(outer.Cols)
	}
	var sided sidedColumns
	cols, oneSide := sided.over(src, at, width, unread), src != nil
	// list appends the read side's positions of the pairs of outer rows
	// [lo, hi): an outer row's once per inner row, or every inner row's.
	list := func(dst []int32, lo, hi int) []int32 {
		for o := lo; o < hi; o++ {
			for i := 0; i < in; i++ {
				p := inner.Phys(i)
				if left {
					p = outer.Phys(o)
				}
				dst = append(dst, int32(p))
			}
		}
		return dst
	}
	if j.Pred == nil {
		if !oneSide {
			return []colbatch.Batch{*colbatch.New(schema, cols, on*in)}, nil
		}
		return []colbatch.Batch{*colbatch.NewSelected(schema, cols, list(make([]int32, 0, on*in), 0, on))}, nil
	}
	rows := max(1, nestedLoopBlock/max(1, in)) // outer rows per block
	var out []colbatch.Batch
	var block []int32
	if oneSide {
		out, block = make([]colbatch.Batch, 0, (on+rows-1)/rows), make([]int32, 0, min(rows, on)*in)
	}
	var pred predicate
	kept := 0
	for lo := 0; lo < on; lo += rows {
		hi := min(lo+rows, on)
		var cand *colbatch.Batch
		if oneSide {
			block = list(block[:0], lo, hi)
			cand = colbatch.NewSelected(schema, cols, block)
		} else {
			cand = colbatch.New(schema, cols, (hi-lo)*in)
		}
		sel, err := pred.selection(j.Pred, cand)
		if err != nil {
			return nil, err
		}
		if kept += len(sel); kept > colbatch.MaxRows {
			return nil, joinRows(kept)
		}
		if oneSide && len(sel) > 0 {
			out = append(out, *cand.SelectOwned(sel))
		}
	}
	if len(out) == 0 {
		return []colbatch.Batch{*colbatch.New(schema, cols, kept)}, nil
	}
	return out, nil
}

// nestedLoopGathered is the output of a nested-loop join read on both sides:
// each block's candidates are gathered for the predicate, the survivors' pair
// positions (the predicate's logical selection indexes the block's lists) are
// kept, and the output is gathered once at the end.
func nestedLoopGathered(j *NestedLoopJoin, schema *sqltypes.Schema, outer, inner *colbatch.Batch) (*colbatch.Batch, error) {
	on, in := outer.Len(), inner.Len()
	rows := max(1, nestedLoopBlock/max(1, in)) // outer rows per block
	var oIdx, iIdx, bo, bi []int32
	var pred predicate
	for lo := 0; lo < on; lo += rows {
		bo, bi = bo[:0], bi[:0]
		for o := lo; o < min(lo+rows, on); o++ {
			for i := 0; i < in; i++ {
				bo, bi = append(bo, int32(outer.Phys(o))), append(bi, int32(inner.Phys(i)))
			}
		}
		if j.Pred == nil {
			oIdx, iIdx = append(oIdx, bo...), append(iIdx, bi...)
			continue
		}
		cand, err := joinedBatch(schema, outer.Cols, bo, inner.Cols, bi, nil, nil, j.out.unread)
		if err != nil {
			return nil, err
		}
		sel, err := pred.selection(j.Pred, cand)
		if err != nil {
			return nil, err
		}
		if err := joinRows(len(oIdx) + len(sel)); err != nil {
			return nil, err
		}
		for _, k := range sel {
			oIdx, iIdx = append(oIdx, bo[k]), append(iIdx, bi[k])
		}
	}
	return joinedBatch(schema, outer.Cols, oIdx, inner.Cols, iIdx, nil, nil, j.out.unread)
}
