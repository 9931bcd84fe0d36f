package exec

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// SeqScan reads an entire table sequentially.
type SeqScan struct {
	Table *storage.Table
	// As qualifies output columns (the table alias in the query).
	As string
}

// Schema implements Operator.
func (s *SeqScan) Schema() *sqltypes.Schema {
	return s.Table.Schema().WithQualifier(s.effectiveName())
}

func (s *SeqScan) effectiveName() string {
	if s.As != "" {
		return s.As
	}
	return s.Table.Name()
}

// Execute implements Operator.
func (s *SeqScan) Execute(ctx *Context) (*sqltypes.Relation, error) {
	v := s.Table.View()
	defer v.Close()
	ctx.read(v)
	out := &sqltypes.Relation{Schema: s.Schema(), Rows: v.Rows()}
	ctx.Res.Add(s.Charge(float64(v.Pages()), float64(len(out.Rows))))
	return out, nil
}

// Explain implements Operator.
func (s *SeqScan) Explain() string {
	v := s.Table.View()
	defer v.Close()
	return fmt.Sprintf("SEQSCAN %s AS %s [%d rows, %d pages]", s.Table.Name(), s.effectiveName(), v.RowCount(), v.Pages())
}

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// IndexProbe describes the key condition an IndexScan serves.
type IndexProbe struct {
	// Eq, when non-nil, probes for key = Eq.
	Eq *sqltypes.Value
	// Lo/Hi bound a range probe (nil = open); inclusive flags apply.
	Lo, Hi                   *sqltypes.Value
	LoInclusive, HiInclusive bool
}

// String renders the probe for EXPLAIN.
func (p IndexProbe) String() string {
	if p.Eq != nil {
		return "= " + p.Eq.String()
	}
	lo, hi := "-inf", "+inf"
	lob, hib := "(", ")"
	if p.Lo != nil {
		lo = p.Lo.String()
		if p.LoInclusive {
			lob = "["
		}
	}
	if p.Hi != nil {
		hi = p.Hi.String()
		if p.HiInclusive {
			hib = "]"
		}
	}
	return lob + lo + ".." + hi + hib
}

// IndexScan probes an index and fetches matching rows. Index traversal and
// row fetches are cache-friendly page touches: with a warm buffer pool they
// are nearly free, but under update-induced buffer churn the server's load
// model turns them into real IO.
type IndexScan struct {
	Table *storage.Table
	Index *storage.Index
	Probe IndexProbe
	As    string
}

// Schema implements Operator.
func (s *IndexScan) Schema() *sqltypes.Schema {
	return s.Table.Schema().WithQualifier(s.effectiveName())
}

func (s *IndexScan) effectiveName() string {
	if s.As != "" {
		return s.As
	}
	return s.Table.Name()
}

// Execute implements Operator.
func (s *IndexScan) Execute(ctx *Context) (*sqltypes.Relation, error) {
	v := s.Table.View()
	defer v.Close()
	ctx.read(v)
	iv, positions, err := s.lookup(v)
	if err != nil {
		return nil, err
	}
	out := &sqltypes.Relation{Schema: s.Schema(), Rows: v.RowsAt(positions)}
	ctx.Res.Add(s.Charge(float64(iv.Len()), float64(len(positions))))
	return out, nil
}

// lookup opens the index through the view and returns the positions of the
// rows the probe matches, in the order the row kernel emits them. Both
// kernels call it.
func (s *IndexScan) lookup(v storage.View) (storage.IndexView, []int32, error) {
	iv, err := v.Index(s.Index)
	if err != nil {
		return iv, nil, err
	}
	if s.Probe.Eq != nil {
		return iv, iv.LookupEq(*s.Probe.Eq), nil
	}
	positions := iv.LookupRange(s.Probe.Lo, s.Probe.Hi, s.Probe.LoInclusive, s.Probe.HiInclusive)
	if positions == nil && s.Index.Kind() == storage.IndexHash {
		return iv, nil, fmt.Errorf("exec: hash index %s cannot serve range probe", s.Index.Name())
	}
	return iv, positions, nil
}

// Explain implements Operator.
func (s *IndexScan) Explain() string {
	return fmt.Sprintf("IDXSCAN %s.%s(%s) %s AS %s", s.Table.Name(), s.Index.Name(), s.Index.Column(), s.Probe, s.effectiveName())
}

// Children implements Operator.
func (s *IndexScan) Children() []Operator { return nil }

// ProbeFromPredicate derives an index probe from a conjunct of the form
// col op literal for the given indexed column (qualified by alias). It
// returns the probe, the remaining conjuncts that the probe does not cover,
// and whether a probe was found.
func ProbeFromPredicate(conjuncts []sqlparser.Expr, alias, column string) (IndexProbe, []sqlparser.Expr, bool) {
	var probe IndexProbe
	found := false
	rest := make([]sqlparser.Expr, 0, len(conjuncts))
	for _, c := range conjuncts {
		if found {
			rest = append(rest, c)
			continue
		}
		be, ok := c.(*sqlparser.BinaryExpr)
		if ok {
			col, lit, op := matchColLit(be, alias, column)
			if col {
				v := lit
				switch op {
				case sqlparser.OpEq:
					probe = IndexProbe{Eq: &v}
					found = true
					continue
				case sqlparser.OpGt:
					probe = IndexProbe{Lo: &v}
					found = true
					continue
				case sqlparser.OpGe:
					probe = IndexProbe{Lo: &v, LoInclusive: true}
					found = true
					continue
				case sqlparser.OpLt:
					probe = IndexProbe{Hi: &v}
					found = true
					continue
				case sqlparser.OpLe:
					probe = IndexProbe{Hi: &v, HiInclusive: true}
					found = true
					continue
				}
			}
		}
		if bt, ok := c.(*sqlparser.BetweenExpr); ok && !bt.Negate {
			if ref, okc := bt.Subject.(*sqlparser.ColumnRef); okc && refMatches(ref, alias, column) {
				lo, okLo := bt.Lo.(*sqlparser.Literal)
				hi, okHi := bt.Hi.(*sqlparser.Literal)
				if okLo && okHi {
					lv, hv := lo.Val, hi.Val
					probe = IndexProbe{Lo: &lv, Hi: &hv, LoInclusive: true, HiInclusive: true}
					found = true
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	if !found {
		return IndexProbe{}, conjuncts, false
	}
	return probe, rest, true
}

// matchColLit matches be as (column op literal) or (literal op column),
// normalizing the operator to put the column on the left.
func matchColLit(be *sqlparser.BinaryExpr, alias, column string) (bool, sqltypes.Value, sqlparser.BinaryOp) {
	if !be.Op.IsComparison() {
		return false, sqltypes.Null, be.Op
	}
	if ref, ok := be.Left.(*sqlparser.ColumnRef); ok && refMatches(ref, alias, column) {
		if lit, ok := be.Right.(*sqlparser.Literal); ok {
			return true, lit.Val, be.Op
		}
	}
	if ref, ok := be.Right.(*sqlparser.ColumnRef); ok && refMatches(ref, alias, column) {
		if lit, ok := be.Left.(*sqlparser.Literal); ok {
			return true, lit.Val, flip(be.Op)
		}
	}
	return false, sqltypes.Null, be.Op
}

func flip(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default:
		return op
	}
}

func refMatches(ref *sqlparser.ColumnRef, alias, column string) bool {
	if !strEqualFold(ref.Name, column) {
		return false
	}
	return ref.Table == "" || strEqualFold(ref.Table, alias)
}

func strEqualFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
