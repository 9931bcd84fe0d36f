package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// ExecuteVectorized runs an operator tree over columnar batches. It is an
// alternative engine over the same physical plans: every operator charges
// exactly the resources its row-at-a-time Execute charges, and the rows of
// the resulting batch are bit-identical to Execute's output (same Value
// kinds and payloads, same order). Routing decisions, virtual-clock timings
// and network draws therefore cannot observe which engine ran — only the
// wall-clock cost of running the simulation changes.
//
// Operators without a vectorized kernel (only index scans, nested-loop and
// merge joins are left) execute their whole subtree through the row engine
// and decompose the result. Kernels that hit an unsupported expression shape
// or an eval error rerun that single node's row kernel over the
// already-produced inputs; see vexpr.go for why that reproduces the row
// path's outcome exactly.
func ExecuteVectorized(op Operator, ctx *Context) (*colbatch.Batch, error) {
	switch x := op.(type) {
	case *Values:
		if x.Col != nil {
			ctx.Res.CPUOps += float64(x.Col.Len())
			return x.Col, nil
		}
		ctx.Res.CPUOps += float64(len(x.Rel.Rows))
		return colbatch.FromRelation(x.Rel), nil

	case *SeqScan:
		cols, n := x.Table.Columns()
		ctx.Res.IOPages += float64(x.Table.Pages())
		ctx.Res.CPUOps += float64(n)
		return colbatch.New(x.Schema(), cols, n), nil

	case *Filter:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		sel, verr := evalPredicate(x.Pred, in)
		if verr != nil {
			rel, err := filterRel(x.Pred, in.ToRelation(), ctx)
			if err != nil {
				return nil, err
			}
			return colbatch.FromRelation(rel), nil
		}
		ctx.Res.CPUOps += float64(in.Len())
		return in.Select(sel), nil

	case *Project:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		out, verr := projectBatch(x.Items, in)
		if verr != nil {
			rel, err := projectRel(x.Items, in.ToRelation(), ctx)
			if err != nil {
				return nil, err
			}
			return colbatch.FromRelation(rel), nil
		}
		ctx.Res.CPUOps += float64(in.Len()) * float64(len(x.Items))
		return out, nil

	case *Sort:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		out, verr := sortBatch(x.Keys, in)
		if verr != nil {
			rel, err := sortRel(x.Keys, in.ToRelation(), ctx)
			if err != nil {
				return nil, err
			}
			return colbatch.FromRelation(rel), nil
		}
		n := float64(in.Len())
		ctx.Res.CPUOps += n * log2(n)
		return out, nil

	case *Limit:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		n := x.N
		if n > in.Len() {
			n = in.Len()
		}
		return in.Slice(0, n), nil

	case *Distinct:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return distinctBatch(in, newVDistinctState(), ctx), nil

	case *Aggregate:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		folder := newAggFolder(x.GroupBy, x.Aggs)
		if verr := foldBatch(folder, in, ctx); verr != nil {
			if err := folder.fold(in.ToRelation(), ctx); err != nil {
				return nil, err
			}
		}
		return colbatch.FromRelation(folder.result(x.Schema())), nil

	case *HashJoin:
		build, err := ExecuteVectorized(x.Build, ctx)
		if err != nil {
			return nil, err
		}
		probe, err := ExecuteVectorized(x.Probe, ctx)
		if err != nil {
			return nil, err
		}
		out, verr := hashJoinBatch(x, build, probe, ctx)
		if verr != nil {
			rel, err := hashJoinRel(x, build.ToRelation(), probe.ToRelation(), ctx)
			if err != nil {
				return nil, err
			}
			return colbatch.FromRelation(rel), nil
		}
		return out, nil

	case *IndexNLJoin:
		outer, err := ExecuteVectorized(x.Outer, ctx)
		if err != nil {
			return nil, err
		}
		out, verr := indexNLJoinBatch(x, outer, ctx)
		if verr != nil {
			rel, err := indexNLJoinRel(x, outer.ToRelation(), ctx)
			if err != nil {
				return nil, err
			}
			return colbatch.FromRelation(rel), nil
		}
		return out, nil

	case *ShardAggFinal:
		in, err := ExecuteVectorized(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		rel, err := x.mergeBatch(in, ctx)
		if err != nil {
			return nil, err
		}
		return colbatch.FromRelation(rel), nil

	default:
		rel, err := op.Execute(ctx)
		if err != nil {
			return nil, err
		}
		return colbatch.FromRelation(rel), nil
	}
}

// projectBatch evaluates select items over a batch. When every item is a
// bare column reference (or *), the output shares the input's row window and
// payload vectors — projection becomes O(1).
func projectBatch(items []sqlparser.SelectItem, in *colbatch.Batch) (*colbatch.Batch, error) {
	outSchema := projectSchema(items, in.Schema)
	refsOnly := true
	nodes := make([]vnode, len(items))
	for i, item := range items {
		if item.Star {
			continue
		}
		node, err := compileExpr(item.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
		if _, ok := node.(*vcolref); !ok {
			refsOnly = false
		}
	}
	if refsOnly {
		var cols []*colbatch.Column
		for i, item := range items {
			if item.Star {
				cols = append(cols, in.Cols...)
				continue
			}
			cols = append(cols, in.Cols[nodes[i].(*vcolref).idx])
		}
		return in.WithColumns(outSchema, cols), nil
	}
	var cols []*colbatch.Column
	for i, item := range items {
		if item.Star {
			for _, c := range in.Cols {
				ref := &vres{n: in.Len(), tag: rCol, col: c, b: in}
				cols = append(cols, ref.toColumn())
			}
			continue
		}
		res, err := nodes[i].eval(in)
		if err != nil {
			return nil, err
		}
		cols = append(cols, res.toColumn())
	}
	return colbatch.New(outSchema, cols, in.Len()), nil
}

// sortBatch orders the batch's logical rows by the key expressions; ties
// keep input order (stable), matching sortRel.
func sortBatch(keys []sqlparser.OrderItem, in *colbatch.Batch) (*colbatch.Batch, error) {
	n := in.Len()
	kres := make([]*vres, len(keys))
	kops := make([]operand, len(keys))
	for j, k := range keys {
		node, err := compileExpr(k.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		if kres[j], err = node.eval(in); err != nil {
			return nil, err
		}
		kops[j] = classify(kres[j])
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
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
	return in.Select(idx), nil
}

// cmpKeyAt three-way-compares key cells ia and ib with sqltypes.Compare
// ordering: NULLs first, then the typed comparison (int exact, float with
// NaN comparing equal to everything, strings lexical, bools as 0/1).
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
	switch o.kind {
	case sqltypes.KindInt:
		a, b := o.intAt(ia), o.intAt(ib)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case sqltypes.KindFloat:
		a, b := o.floatAt(ia), o.floatAt(ib)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default:
		return sqltypes.Compare(r.value(ia), r.value(ib))
	}
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

// batchRowHashes computes rowHash for every logical row column-by-column.
func batchRowHashes(b *colbatch.Batch) []uint64 {
	n := b.Len()
	hs := make([]uint64, n)
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

// vDistinctState is the columnar seen-set: the streaming distinct source
// keeps one across batches, the materialized operator uses a fresh one.
type vDistinctState struct {
	seen map[uint64][]seenRow
}

type seenRow struct {
	b *colbatch.Batch
	i int
}

func newVDistinctState() *vDistinctState {
	return &vDistinctState{seen: map[uint64][]seenRow{}}
}

// distinctBatch selects the not-seen-before rows, charging two CPU ops per
// input row like distinctState.fold. Rows materialize only on hash-bucket
// collisions.
func distinctBatch(in *colbatch.Batch, state *vDistinctState, ctx *Context) *colbatch.Batch {
	n := in.Len()
	hs := batchRowHashes(in)
	sel := make([]int, 0, n)
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
			sel = append(sel, i)
		}
	}
	ctx.Res.CPUOps += float64(n) * 2
	return in.Select(sel)
}

// foldBatch is the vectorized counterpart of aggFolder.fold: group keys and
// aggregate arguments evaluate column-wise up front (so an error leaves the
// folder untouched for the row fallback), then rows fold into the exact
// same group structures the row kernel builds.
func foldBatch(f *aggFolder, in *colbatch.Batch, ctx *Context) error {
	n := in.Len()
	gres := make([]*vres, len(f.groupBy))
	for i, g := range f.groupBy {
		node, err := compileExpr(g, in.Schema)
		if err != nil {
			return err
		}
		if gres[i], err = node.eval(in); err != nil {
			return err
		}
	}
	ares := make([]*vres, len(f.aggs))
	aops := make([]operand, len(f.aggs))
	for i, agg := range f.aggs {
		if agg.Arg == nil {
			continue
		}
		node, err := compileExpr(agg.Arg, in.Schema)
		if err != nil {
			return err
		}
		if ares[i], err = node.eval(in); err != nil {
			return err
		}
		aops[i] = classify(ares[i])
	}
	// Group hashes fold column-major (cache-friendly, one dispatch per cell);
	// candidate groups compare against the unboxed vres cells directly, so
	// keys box exactly once per distinct group instead of once per row.
	gops := make([]operand, len(gres))
	for i, g := range gres {
		gops[i] = classify(g)
	}
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = 1469598103934665603
	}
	for gi, g := range gres {
		o := &gops[gi]
		switch {
		case o.ok && !o.isConst && o.nulls == nil && o.kind == sqltypes.KindInt:
			for row := 0; row < n; row++ {
				hs[row] = (hs[row] ^ sqltypes.HashInt64(o.ints[row])) * 1099511628211
			}
		case o.ok && !o.isConst && o.nulls == nil && o.kind == sqltypes.KindFloat:
			for row := 0; row < n; row++ {
				hs[row] = (hs[row] ^ sqltypes.HashFloat64(o.floats[row])) * 1099511628211
			}
		case o.ok && !o.isConst && o.nulls == nil && o.kind == sqltypes.KindString:
			for row := 0; row < n; row++ {
				hs[row] = (hs[row] ^ sqltypes.HashString(o.strs[row])) * 1099511628211
			}
		default:
			for row := 0; row < n; row++ {
				hs[row] = (hs[row] ^ vresHash(g, row)) * 1099511628211
			}
		}
	}
	rowGroups := make([]*aggGroup, n)
	for row := 0; row < n; row++ {
		h := hs[row]
		var grp *aggGroup
		for _, g := range f.groups[h] {
			if groupKeysMatch(g.keys, gres, gops, row) {
				grp = g
				break
			}
		}
		if grp == nil {
			keys := make(sqltypes.Row, len(f.groupBy))
			for i, g := range gres {
				keys[i] = g.value(row)
			}
			grp = &aggGroup{keys: keys, states: make([]*aggState, len(f.aggs))}
			for i := range grp.states {
				grp.states[i] = newAggState()
			}
			f.groups[h] = append(f.groups[h], grp)
			f.order = append(f.order, grp)
		}
		grp.countStar++
		rowGroups[row] = grp
	}
	// Aggregate arguments fold agg-major so the typed dispatch happens once
	// per (agg, batch) instead of once per (agg, row).
	for i := range f.aggs {
		a := ares[i]
		if a == nil {
			continue // COUNT(*)
		}
		o := &aops[i]
		switch {
		case o.ok && !o.isConst && o.kind == sqltypes.KindInt:
			if o.nulls == nil {
				for row := 0; row < n; row++ {
					rowGroups[row].states[i].addInt64(o.ints[row])
				}
			} else {
				for row := 0; row < n; row++ {
					if o.nulls[row] {
						continue
					}
					rowGroups[row].states[i].addInt64(o.ints[row])
				}
			}
		case o.ok && !o.isConst && o.kind == sqltypes.KindFloat:
			if o.nulls == nil {
				for row := 0; row < n; row++ {
					rowGroups[row].states[i].addFloat64(o.floats[row])
				}
			} else {
				for row := 0; row < n; row++ {
					if o.nulls[row] {
						continue
					}
					rowGroups[row].states[i].addFloat64(o.floats[row])
				}
			}
		default:
			for row := 0; row < n; row++ {
				rowGroups[row].states[i].add(a.value(row))
			}
		}
	}
	ctx.Res.CPUOps += float64(n) * float64(1+len(f.aggs))
	return nil
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
			switch o.kind {
			case sqltypes.KindInt:
				if k.Kind() == sqltypes.KindInt {
					if k.Int() != o.ints[row] {
						return false
					}
					continue
				}
			case sqltypes.KindFloat:
				if k.Kind() == sqltypes.KindFloat {
					a, b := o.floats[row], k.Float()
					if a < b || a > b {
						return false
					}
					continue
				}
			case sqltypes.KindString:
				if k.Kind() == sqltypes.KindString {
					if k.Str() != o.strs[row] {
						return false
					}
					continue
				}
			case sqltypes.KindBool:
				if k.Kind() == sqltypes.KindBool {
					if k.Bool() != o.bools[row] {
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

// keyHashes returns Value.Hash of every logical cell of a join key. Typed
// vectors hash straight off their payload; NULL cells get an arbitrary value,
// since join kernels skip them before looking at the hash.
func keyHashes(r *vres, o *operand) []uint64 {
	hs := make([]uint64, r.n)
	switch {
	case o.ok && !o.isConst && o.kind == sqltypes.KindInt:
		for i, v := range o.ints {
			hs[i] = sqltypes.HashInt64(v)
		}
	case o.ok && !o.isConst && o.kind == sqltypes.KindFloat:
		for i, v := range o.floats {
			hs[i] = sqltypes.HashFloat64(v)
		}
	case o.ok && !o.isConst && o.kind == sqltypes.KindString:
		for i, v := range o.strs {
			hs[i] = sqltypes.HashString(v)
		}
	default:
		for i := range hs {
			hs[i] = vresHash(r, i)
		}
	}
	return hs
}

// keysEqual reports sqltypes.Compare(l[li], r[ri]) == 0 for two non-NULL key
// cells without boxing them when both sides are typed vectors: int/int
// exactly, any other numeric pair through float64 with !(a<b || a>b) (which,
// like Compare, calls NaN equal to everything), strings and bools by value.
// Every other pairing boxes and asks Compare.
func keysEqual(l *vres, lo *operand, li int, r *vres, ro *operand, ri int) bool {
	if lo.ok && ro.ok && !lo.isConst && !ro.isConst {
		switch {
		case lo.kind == sqltypes.KindInt && ro.kind == sqltypes.KindInt:
			return lo.ints[li] == ro.ints[ri]
		case numericKind(lo.kind) && numericKind(ro.kind):
			a, b := lo.floatAt(li), ro.floatAt(ri)
			return !(a < b || a > b)
		case lo.kind == sqltypes.KindString && ro.kind == sqltypes.KindString:
			return lo.strs[li] == ro.strs[ri]
		case lo.kind == sqltypes.KindBool && ro.kind == sqltypes.KindBool:
			return lo.bools[li] == ro.bools[ri]
		}
	}
	return sqltypes.Compare(l.value(li), r.value(ri)) == 0
}

// physOf maps logical row indices of b to physical positions, in place.
func physOf(b *colbatch.Batch, idx []int) []int {
	if off, ok := b.Contig(); ok && off == 0 {
		return idx
	}
	for i, l := range idx {
		idx[i] = b.Phys(l)
	}
	return idx
}

// joinedBatch gathers the matched (left, right) physical positions into one
// contiguous batch of left columns followed by right columns, applies the
// residual predicate and returns the surviving rows.
func joinedBatch(schema *sqltypes.Schema, left []*colbatch.Column, lPhys []int, right []*colbatch.Column, rPhys []int, residual sqlparser.Expr) (*colbatch.Batch, error) {
	cols := make([]*colbatch.Column, 0, len(left)+len(right))
	for _, c := range left {
		cols = append(cols, c.Gather(lPhys))
	}
	for _, c := range right {
		cols = append(cols, c.Gather(rPhys))
	}
	out := colbatch.New(schema, cols, len(lPhys))
	if residual == nil {
		return out, nil
	}
	sel, err := evalPredicate(residual, out)
	if err != nil {
		return nil, err
	}
	return out.Select(sel), nil
}

// hashJoinBatch joins two batches on key equality: a chained index table over
// the build side (head[bucket] and next[row] hold build row + 1, 0 ends a
// chain), probed in probe order and compared on the typed key vectors, then
// the residual filter over the gathered candidate batch. Build rows enter the
// table last to first, so every chain lists its rows in build order and the
// candidate pairs come out in the row kernel's order. Like the row kernel's
// map keyed by hash, a pair matches when the full hashes are equal AND the
// keys compare equal (Compare alone would also pair NaN with everything).
func hashJoinBatch(j *HashJoin, build, probe *colbatch.Batch, ctx *Context) (*colbatch.Batch, error) {
	bnode, err := compileExpr(j.BuildKey, build.Schema)
	if err != nil {
		return nil, err
	}
	pnode, err := compileExpr(j.ProbeKey, probe.Schema)
	if err != nil {
		return nil, err
	}
	bres, err := bnode.eval(build)
	if err != nil {
		return nil, err
	}
	pres, err := pnode.eval(probe)
	if err != nil {
		return nil, err
	}
	bops, pops := classify(bres), classify(pres)
	bhs, phs := keyHashes(bres, &bops), keyHashes(pres, &pops)

	bn, pn := build.Len(), probe.Len()
	if bn >= math.MaxInt32 {
		return nil, fmt.Errorf("exec: %d build rows do not fit the join table's 32-bit chains", bn)
	}
	buckets := 1
	for buckets < 2*bn {
		buckets <<= 1
	}
	mask := uint64(buckets - 1)
	head := make([]int32, buckets)
	next := make([]int32, bn)
	for i := bn - 1; i >= 0; i-- {
		if bres.isNull(i) {
			continue
		}
		slot := bhs[i] & mask
		next[i] = head[slot]
		head[slot] = int32(i + 1)
	}
	var bIdx, pIdx []int
	for i := 0; i < pn; i++ {
		if pres.isNull(i) {
			continue
		}
		h := phs[i]
		for at := head[h&mask]; at != 0; at = next[at-1] {
			bi := int(at - 1)
			if bhs[bi] == h && keysEqual(bres, &bops, bi, pres, &pops, i) {
				bIdx = append(bIdx, bi)
				pIdx = append(pIdx, i)
			}
		}
	}
	out, err := joinedBatch(build.Schema.Concat(probe.Schema), build.Cols, physOf(build, bIdx), probe.Cols, physOf(probe, pIdx), j.Residual)
	if err != nil {
		return nil, err
	}
	ctx.Res.CPUOps += float64(bn)*2 + float64(pn)*2 + float64(out.Len())
	return out, nil
}

// indexNLJoinBatch is the columnar index nested-loop join: the outer key
// evaluates once over the whole outer batch, every non-NULL key probes the
// index by its hash (exactly the bucket LookupEq reads), and the joined rows
// are a Gather of the outer columns and of the inner table's column memo at
// the matched positions. It charges the row kernel's formula over the same
// probe and fetch counts.
//
// The positions come from the live index and the columns from a memo taken
// at one table version; a position the memo does not cover (the table grew in
// between) is an error here, which sends the caller to the row kernel, whose
// Table.Row fetches decide the outcome.
func indexNLJoinBatch(j *IndexNLJoin, outer *colbatch.Batch, ctx *Context) (*colbatch.Batch, error) {
	knode, err := compileExpr(j.OuterKey, outer.Schema)
	if err != nil {
		return nil, err
	}
	kres, err := knode.eval(outer)
	if err != nil {
		return nil, err
	}
	kops := classify(kres)
	khs := keyHashes(kres, &kops)
	inner, innerRows := j.Inner.Columns()

	var oIdx, iPos []int
	var probes float64
	for i, on := 0, outer.Len(); i < on; i++ {
		if kres.isNull(i) {
			continue
		}
		probes++
		before := len(iPos)
		iPos = j.Index.AppendEqHash(iPos, khs[i])
		for _, pos := range iPos[before:] {
			if pos < 0 || pos >= innerRows {
				return nil, fmt.Errorf("exec: index %s names row %d, the column memo of %s holds %d", j.Index.Name(), pos, j.Inner.Name(), innerRows)
			}
			oIdx = append(oIdx, i)
		}
	}
	fetches := float64(len(iPos))
	out, err := joinedBatch(outer.Schema.Concat(j.innerSchema()), outer.Cols, physOf(outer, oIdx), inner, iPos, j.Residual)
	if err != nil {
		return nil, err
	}
	j.charge(ctx, probes, fetches)
	return out, nil
}
