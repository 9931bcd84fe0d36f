package exec

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// IndexNLJoin is an index nested-loop join: for each outer row it probes the
// inner table's index on the join key and fetches matching rows. Probes and
// fetches are cache-friendly page touches — with a warm buffer
// pool this plan is extremely cheap, which is why a fast server's optimizer
// prefers it; under update-induced buffer churn the same plan collapses to
// random IO. This is the mechanism behind the paper's Figure 9 observation
// that the fastest server (S3) is hyper-sensitive to load for QT2.
type IndexNLJoin struct {
	Outer    Operator
	Inner    *storage.Table
	Index    *storage.Index
	InnerAs  string
	OuterKey sqlparser.Expr
	// Residual, when non-nil, filters joined rows.
	Residual sqlparser.Expr

	out joinOut
}

func (j *IndexNLJoin) innerSchema() *sqltypes.Schema {
	name := j.InnerAs
	if name == "" {
		name = j.Inner.Name()
	}
	return j.Inner.Schema().WithQualifier(name)
}

// Schema implements Operator.
func (j *IndexNLJoin) Schema() *sqltypes.Schema {
	if s := j.out.fixed(); s != nil {
		return s
	}
	return j.Outer.Schema().Concat(j.innerSchema())
}

// Execute implements Operator.
func (j *IndexNLJoin) Execute(ctx *Context) (*sqltypes.Relation, error) {
	outer, err := j.Outer.Execute(ctx)
	if err != nil {
		return nil, err
	}
	v := j.Inner.View()
	defer v.Close()
	iv, err := v.Index(j.Index)
	if err != nil {
		return nil, err
	}
	// Every probe first, counted, then its matches into lists of their final
	// length, then the matched inner rows in one materialization.
	type probe struct {
		row int
		h   uint64
	}
	probes := make([]probe, 0, len(outer.Rows))
	fetches := 0
	for o, orow := range outer.Rows {
		k, err := sqlparser.Eval(j.OuterKey, orow, outer.Schema)
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			continue
		}
		h := k.Hash()
		probes = append(probes, probe{o, h})
		fetches += iv.CountEqHash(h)
	}
	outerOf, positions := make([]int, 0, fetches), make([]int32, 0, fetches) // per fetch: the outer row and the inner position
	for _, p := range probes {
		before := len(positions)
		positions = iv.AppendEqHash(positions, p.h, 0, iv.CountEqHash(p.h))
		for range positions[before:] {
			outerOf = append(outerOf, p.row)
		}
	}
	outSchema := outer.Schema.Concat(j.innerSchema())
	out := sqltypes.NewRelation(outSchema)
	for f, irow := range v.RowsAt(positions) {
		joined := outer.Rows[outerOf[f]].Concat(irow)
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
	ctx.read(v)
	ctx.Res.Add(j.Charge(float64(iv.Len()), float64(len(probes)), float64(fetches)))
	return out, nil
}

// Explain implements Operator.
func (j *IndexNLJoin) Explain() string {
	return fmt.Sprintf("INLJOIN %s -> %s.%s(%s)", j.OuterKey, j.Inner.Name(), j.Index.Name(), j.Index.Column())
}

// Children implements Operator.
func (j *IndexNLJoin) Children() []Operator { return []Operator{j.Outer} }
