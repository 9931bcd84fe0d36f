package stats

import (
	"math"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Default selectivities for predicates the estimator cannot analyze; values
// follow the classic System R conventions.
const (
	DefaultEqSelectivity    = 0.005
	DefaultRangeSelectivity = 1.0 / 3.0
	DefaultLikeSelectivity  = 0.1
	DefaultSelectivity      = 0.25
)

// StatsProvider resolves the statistics for a table referenced by its
// effective (aliased) name in a query.
type StatsProvider interface {
	TableStats(effectiveName string) *TableStats
}

// MapProvider is a StatsProvider backed by a map keyed by effective name.
type MapProvider map[string]*TableStats

// TableStats implements StatsProvider.
func (m MapProvider) TableStats(name string) *TableStats { return m[name] }

// Selectivity estimates the fraction of rows satisfying pred. The provider
// maps table qualifiers to statistics; unqualified or unknown columns fall
// back to defaults. Estimates never leave (0, 1].
func Selectivity(pred sqlparser.Expr, provider StatsProvider) float64 {
	s := selectivity(pred, provider)
	if s <= 0 {
		s = 1e-6
	}
	if s > 1 {
		s = 1
	}
	return s
}

func selectivity(pred sqlparser.Expr, p StatsProvider) float64 {
	switch e := pred.(type) {
	case *sqlparser.Literal:
		if e.Val.Kind() == sqltypes.KindBool {
			if e.Val.Bool() {
				return 1
			}
			return 0
		}
		return 1
	case *sqlparser.BinaryExpr:
		switch e.Op {
		case sqlparser.OpAnd:
			return selectivity(e.Left, p) * selectivity(e.Right, p)
		case sqlparser.OpOr:
			l, r := selectivity(e.Left, p), selectivity(e.Right, p)
			return l + r - l*r
		}
		if e.Op.IsComparison() {
			return comparisonSelectivity(e, p)
		}
		return 1
	case *sqlparser.NotExpr:
		return 1 - selectivity(e.Inner, p)
	case *sqlparser.IsNullExpr:
		if cs := columnStats(e.Inner, p); cs != nil {
			f := cs.NullFraction()
			if e.Negate {
				return 1 - f
			}
			return f
		}
		if e.Negate {
			return 0.95
		}
		return 0.05
	case *sqlparser.InExpr:
		base := DefaultEqSelectivity
		if cs := columnStats(e.Needle, p); cs != nil && cs.Distinct > 0 {
			base = 1 / float64(cs.Distinct)
		}
		s := base * float64(len(e.List))
		if e.Negate {
			s = 1 - s
		}
		return s
	case *sqlparser.BetweenExpr:
		s := betweenSelectivity(e, p)
		if e.Negate {
			s = 1 - s
		}
		return s
	case *sqlparser.LikeExpr:
		s := DefaultLikeSelectivity
		if e.Negate {
			s = 1 - s
		}
		return s
	default:
		return DefaultSelectivity
	}
}

// comparisonSelectivity handles col op literal (either side) and col op col.
func comparisonSelectivity(e *sqlparser.BinaryExpr, p StatsProvider) float64 {
	colL, litL := asColumn(e.Left), asLiteral(e.Left)
	colR, litR := asColumn(e.Right), asLiteral(e.Right)
	// column op column — a join-ish predicate: use 1/max(distinct).
	if colL != nil && colR != nil {
		csL, csR := lookup(colL, p), lookup(colR, p)
		dl, dr := int64(0), int64(0)
		if csL != nil {
			dl = csL.Distinct
		}
		if csR != nil {
			dr = csR.Distinct
		}
		d := dl
		if dr > d {
			d = dr
		}
		if e.Op == sqlparser.OpEq && d > 0 {
			return 1 / float64(d)
		}
		return DefaultRangeSelectivity
	}
	var col *sqlparser.ColumnRef
	var lit *sqlparser.Literal
	op := e.Op
	switch {
	case colL != nil && litR != nil:
		col, lit = colL, litR
	case colR != nil && litL != nil:
		col, lit = colR, litL
		op = op.Flip()
	default:
		return DefaultRangeSelectivity
	}
	cs := lookup(col, p)
	if cs == nil {
		if op == sqlparser.OpEq {
			return DefaultEqSelectivity
		}
		return DefaultRangeSelectivity
	}
	switch op {
	case sqlparser.OpEq:
		if cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return DefaultEqSelectivity
	case sqlparser.OpNe:
		if cs.Distinct > 0 {
			return 1 - 1/float64(cs.Distinct)
		}
		return 1 - DefaultEqSelectivity
	}
	if !lit.Val.IsNumeric() || cs.Hist == nil {
		return DefaultRangeSelectivity
	}
	x := lit.Val.Float()
	switch op {
	case sqlparser.OpLt, sqlparser.OpLe:
		return cs.Hist.SelectivityLE(x)
	case sqlparser.OpGt, sqlparser.OpGe:
		return cs.Hist.SelectivityGT(x)
	}
	return DefaultRangeSelectivity
}

func betweenSelectivity(e *sqlparser.BetweenExpr, p StatsProvider) float64 {
	col := asColumn(e.Subject)
	lo, hi := asLiteral(e.Lo), asLiteral(e.Hi)
	if col == nil || lo == nil || hi == nil || !lo.Val.IsNumeric() || !hi.Val.IsNumeric() {
		return DefaultRangeSelectivity * DefaultRangeSelectivity
	}
	cs := lookup(col, p)
	if cs == nil || cs.Hist == nil {
		return DefaultRangeSelectivity * DefaultRangeSelectivity
	}
	return cs.Hist.SelectivityBetween(lo.Val.Float(), hi.Val.Float())
}

func asColumn(e sqlparser.Expr) *sqlparser.ColumnRef {
	c, _ := e.(*sqlparser.ColumnRef)
	return c
}

func asLiteral(e sqlparser.Expr) *sqlparser.Literal {
	l, _ := e.(*sqlparser.Literal)
	return l
}

func columnStats(e sqlparser.Expr, p StatsProvider) *ColumnStats {
	if c := asColumn(e); c != nil {
		return lookup(c, p)
	}
	return nil
}

func lookup(c *sqlparser.ColumnRef, p StatsProvider) *ColumnStats {
	if p == nil {
		return nil
	}
	if c.Table != "" {
		return p.TableStats(c.Table).Column(c.Name)
	}
	return nil
}

// JoinCardinality estimates |L ⋈ R| on an equality key using the classic
// formula |L|·|R| / max(distinct(Lkey), distinct(Rkey)).
func JoinCardinality(left, right int64, leftDistinct, rightDistinct int64) int64 {
	if left == 0 || right == 0 {
		return 0
	}
	d := leftDistinct
	if rightDistinct > d {
		d = rightDistinct
	}
	if d <= 0 {
		d = int64(math.Max(float64(left), float64(right)))
	}
	card := float64(left) * float64(right) / float64(d)
	if card < 1 {
		card = 1
	}
	return int64(card)
}

// GroupCardinality estimates the number of groups produced by grouping rows
// on keys with the given distinct counts, capped by the input cardinality.
func GroupCardinality(input int64, keyDistincts []int64) int64 {
	if input == 0 {
		return 0
	}
	if len(keyDistincts) == 0 {
		return 1
	}
	groups := int64(1)
	for _, d := range keyDistincts {
		if d <= 0 {
			d = 10
		}
		if groups > input/d+1 {
			// avoid overflow; cap early
			groups = input
			break
		}
		groups *= d
	}
	if groups > input {
		groups = input
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}
