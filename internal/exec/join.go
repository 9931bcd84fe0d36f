package exec

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// HashJoin joins two inputs on equality of key expressions. The kernels hash
// the Build input and stream the Probe input, or the other way round when
// BuildRight is set; either way the output is Build columns then Probe
// columns and the charge is the same.
type HashJoin struct {
	Build, Probe       Operator
	BuildKey, ProbeKey sqlparser.Expr
	// Residual, when non-nil, is applied to joined rows (non-equi conjuncts).
	Residual sqlparser.Expr
	// BuildRight hashes Probe and streams Build. Only the integrator's merge
	// sets it, for a right input estimated to finish first (JoinLeftDeep).
	BuildRight bool

	out joinOut
}

// sides returns the hashed input and the streamed one.
func (j *HashJoin) sides() (hashed, streamed Operator) {
	if j.BuildRight {
		return j.Probe, j.Build
	}
	return j.Build, j.Probe
}

// Schema implements Operator. Output is build columns followed by probe
// columns.
func (j *HashJoin) Schema() *sqltypes.Schema {
	if s := j.out.fixed(); s != nil {
		return s
	}
	return j.Build.Schema().Concat(j.Probe.Schema())
}

// Execute implements Operator.
func (j *HashJoin) Execute(ctx *Context) (*sqltypes.Relation, error) {
	build, err := j.Build.Execute(ctx)
	if err != nil {
		return nil, err
	}
	probe, err := j.Probe.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return hashJoinRel(j, build, probe, ctx)
}

// hashJoinRel is the row-level join kernel over the executed children. It
// hashes one side (see sides) and, for each streamed row in order, emits its
// matches in hashed-side order.
func hashJoinRel(j *HashJoin, build, probe *sqltypes.Relation, ctx *Context) (*sqltypes.Relation, error) {
	outSchema := build.Schema.Concat(probe.Schema)
	out := sqltypes.NewRelation(outSchema)
	hashed, streamed, hkey, skey := build, probe, j.BuildKey, j.ProbeKey
	if j.BuildRight {
		hashed, streamed, hkey, skey = probe, build, j.ProbeKey, j.BuildKey
	}

	ht := make(map[uint64][]sqltypes.Row, len(hashed.Rows))
	keys := make(map[uint64][]sqltypes.Value)
	for _, row := range hashed.Rows {
		k, err := sqlparser.Eval(hkey, row, hashed.Schema)
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			continue
		}
		h := k.Hash()
		ht[h] = append(ht[h], row)
		keys[h] = append(keys[h], k)
	}
	for _, srow := range streamed.Rows {
		k, err := sqlparser.Eval(skey, srow, streamed.Schema)
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			continue
		}
		h := k.Hash()
		bucket := ht[h]
		hkeys := keys[h]
		for i, hrow := range bucket {
			if sqltypes.Compare(hkeys[i], k) != 0 {
				continue
			}
			joined := hrow.Concat(srow)
			if j.BuildRight {
				joined = srow.Concat(hrow)
			}
			if j.Residual != nil {
				ok, err := sqlparser.EvalBool(j.Residual, joined, outSchema)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Rows = append(out.Rows, joined)
		}
	}
	ctx.Res.Add(j.Charge(float64(len(hashed.Rows)), float64(len(streamed.Rows)), float64(len(out.Rows))))
	return out, nil
}

// Explain implements Operator.
func (j *HashJoin) Explain() string {
	s := fmt.Sprintf("HASHJOIN %s = %s", j.BuildKey, j.ProbeKey)
	if j.BuildRight {
		s += " BUILD RIGHT"
	}
	if j.Residual != nil {
		s += " RESIDUAL " + j.Residual.String()
	}
	return s
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Build, j.Probe} }

// NestedLoopJoin joins two inputs on an arbitrary predicate. A nil predicate
// produces the cross product.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Pred         sqlparser.Expr

	out joinOut
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *sqltypes.Schema {
	if s := j.out.fixed(); s != nil {
		return s
	}
	return j.Outer.Schema().Concat(j.Inner.Schema())
}

// Execute implements Operator.
func (j *NestedLoopJoin) Execute(ctx *Context) (*sqltypes.Relation, error) {
	outer, err := j.Outer.Execute(ctx)
	if err != nil {
		return nil, err
	}
	inner, err := j.Inner.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ctx.Res.Add(j.Charge(float64(len(outer.Rows)), float64(len(inner.Rows))))
	outSchema := outer.Schema.Concat(inner.Schema)
	out := sqltypes.NewRelation(outSchema)
	for _, orow := range outer.Rows {
		for _, irow := range inner.Rows {
			joined := orow.Concat(irow)
			if j.Pred != nil {
				ok, err := sqlparser.EvalBool(j.Pred, joined, outSchema)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Rows = append(out.Rows, joined)
		}
	}
	return out, nil
}

// Explain implements Operator.
func (j *NestedLoopJoin) Explain() string {
	if j.Pred == nil {
		return "NLJOIN CROSS"
	}
	return "NLJOIN " + j.Pred.String()
}

// Children implements Operator.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.Outer, j.Inner} }

// EquiJoinKey matches c as leftCol = rightCol where the two sides are columns
// resolvable in the left and right schemas respectively (in either order),
// returning the key pair in (left, right) order.
func EquiJoinKey(c sqlparser.Expr, left, right *sqltypes.Schema) (lk, rk *sqlparser.ColumnRef, ok bool) {
	be, isBin := c.(*sqlparser.BinaryExpr)
	if !isBin || be.Op != sqlparser.OpEq {
		return nil, nil, false
	}
	lref, lok := be.Left.(*sqlparser.ColumnRef)
	rref, rok := be.Right.(*sqlparser.ColumnRef)
	switch {
	case !lok || !rok:
		return nil, nil, false
	case resolves(lref, left) && resolves(rref, right):
		return lref, rref, true
	case resolves(rref, left) && resolves(lref, right):
		return rref, lref, true
	}
	return nil, nil, false
}

// ExtractEquiJoinKeys finds the first conjunct EquiJoinKey matches. It
// returns the left key, right key, the remaining conjuncts and whether a key
// pair was found.
func ExtractEquiJoinKeys(conjuncts []sqlparser.Expr, left, right *sqltypes.Schema) (lk, rk sqlparser.Expr, rest []sqlparser.Expr, ok bool) {
	for i, c := range conjuncts {
		if l, r, found := EquiJoinKey(c, left, right); found {
			rest = append(append([]sqlparser.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
			return l, r, rest, true
		}
	}
	return nil, nil, conjuncts, false
}

func resolves(ref *sqlparser.ColumnRef, schema *sqltypes.Schema) bool {
	_, err := schema.ColumnIndex(ref.Table, ref.Name)
	return err == nil
}
