package remote

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// estimator derives optimizer-visible cost estimates by walking a physical
// operator tree with table statistics — never by executing it. It estimates
// the counts each operator's charge reads and prices them with the
// operator's own Charge, the one both kernels call: an estimate fed the
// counts an execution observed is that execution's charge in every bit, but
// for rounding where a charge under a join's right input adds to a
// fractional one. On a calm (zero-load) server, estimated and observed times
// then differ only by cardinality error, and the calibration factor sits
// near 1.
type estimator struct {
	provider stats.StatsProvider
	// tables is what the bind read of each table the plans reference.
	tables map[*storage.Table]tableFacts
	server *Server
	// schema is the statement's tables joined in FROM order: what a column
	// reference resolves against, whichever plan is being estimated.
	schema *sqltypes.Schema
	// observed, nil in production, holds what executing each node of a plan
	// counted, to stand in for the estimated counts (see count).
	observed map[exec.Operator]counts
}

// counts is what executing one node counted: its output rows and, for an
// index join, its non-NULL probes and its matches before the residual.
type counts struct{ card, probes, matches float64 }

// count returns est, the estimated output rows of op, or the rows executing
// op counted when the estimator holds them.
func (e *estimator) count(op exec.Operator, est float64) float64 {
	if c, ok := e.observed[op]; ok {
		return c.card
	}
	return est
}

// nodeEst is the estimate for one subtree.
type nodeEst struct {
	card  float64
	width float64 // average output row bytes on the columnar wire
	// computed marks an aggregation's or a projection's output: its columns are
	// not base-table columns, so statistics cannot size them.
	computed bool
	res      exec.Resources
}

// estimatePlan estimates an entire plan and packages the CostEstimate.
func (e *estimator) estimatePlan(root exec.Operator) (CostEstimate, error) {
	ne, err := e.estimate(root)
	if err != nil {
		return CostEstimate{}, err
	}
	outBytes := int(ne.card * ne.width)
	res := ne.res
	res.OutBytes = outBytes
	total := e.server.EstimateTime(res)
	card := int64(ne.card)
	if card < 1 {
		card = 1
	}
	first := e.server.firstTuple(total)
	next := (total - first) / float64(card)
	if next < 0 {
		next = 0
	}
	return CostEstimate{
		TotalMS:      total,
		FirstTupleMS: first,
		NextTupleMS:  next,
		Card:         card,
		OutBytes:     outBytes,
	}, nil
}

func (e *estimator) estimate(op exec.Operator) (nodeEst, error) {
	switch x := op.(type) {
	case *exec.Values:
		card := float64(x.Rel.Cardinality())
		width := 16.0
		if card > 0 {
			width = float64(x.Rel.ByteSize()) / card
		}
		return nodeEst{card: card, width: width, computed: true, res: x.Charge(card)}, nil

	case *exec.SeqScan:
		facts := e.tables[x.Table]
		card := float64(facts.stats.RowCount)
		return nodeEst{card: card, width: facts.stats.WireRowBytes, res: x.Charge(float64(facts.pages), card)}, nil

	case *exec.IndexScan:
		ts := e.tables[x.Table].stats
		card := e.count(x, float64(ts.RowCount)*e.probeSelectivity(x, ts))
		return nodeEst{card: card, width: ts.WireRowBytes, res: x.Charge(indexEntries(ts, x.Index.Column()), card)}, nil

	case *exec.Filter:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		out := in
		out.card = e.count(x, in.card*stats.Selectivity(x.Pred, e.provider))
		out.res.Add(x.Charge(in.card))
		return out, nil

	case *exec.Project:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		out := in
		out.width, out.computed = e.projectWidth(x.Items, in), true
		out.res.Add(x.Charge(in.card))
		return out, nil

	case *exec.HashJoin:
		l, err := e.estimate(x.Build)
		if err != nil {
			return nodeEst{}, err
		}
		r, err := e.estimate(x.Probe)
		if err != nil {
			return nodeEst{}, err
		}
		card := float64(stats.JoinCardinality(int64(l.card), int64(r.card),
			e.keyDistinct(x.BuildKey, l.card), e.keyDistinct(x.ProbeKey, r.card)))
		if x.Residual != nil {
			card *= stats.Selectivity(x.Residual, e.provider)
		}
		card = e.count(x, card)
		out := nodeEst{card: card, width: l.width + r.width, res: l.res}
		out.res.Add(r.res)
		out.res.Add(x.Charge(l.card, r.card, card))
		return out, nil

	case *exec.IndexNLJoin:
		outer, err := e.estimate(x.Outer)
		if err != nil {
			return nodeEst{}, err
		}
		ts := e.tables[x.Inner].stats
		matches := float64(stats.JoinCardinality(int64(outer.card), ts.RowCount,
			e.keyDistinct(x.OuterKey, outer.card), columnDistinct(ts, x.Index.Column())))
		card, probes := matches, outer.card // a NULL outer key does not probe
		if cs := e.keyStats(x.OuterKey); cs != nil {
			probes *= 1 - cs.NullFraction()
		}
		if x.Residual != nil {
			card *= stats.Selectivity(x.Residual, e.provider)
		}
		if c, ok := e.observed[x]; ok {
			card, probes, matches = c.card, c.probes, c.matches
		}
		out := nodeEst{card: card, width: outer.width + ts.WireRowBytes, res: outer.res}
		out.res.Add(x.Charge(indexEntries(ts, x.Index.Column()), probes, matches))
		return out, nil

	case *exec.NestedLoopJoin:
		l, err := e.estimate(x.Outer)
		if err != nil {
			return nodeEst{}, err
		}
		r, err := e.estimate(x.Inner)
		if err != nil {
			return nodeEst{}, err
		}
		sel := 1.0
		if x.Pred != nil {
			sel = stats.Selectivity(x.Pred, e.provider)
		}
		out := nodeEst{card: e.count(x, l.card*r.card*sel), width: l.width + r.width, res: l.res}
		out.res.Add(r.res)
		out.res.Add(x.Charge(l.card, r.card))
		return out, nil

	case *exec.Aggregate:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		var distincts []int64
		for _, g := range x.GroupBy {
			distincts = append(distincts, e.keyDistinct(g, in.card))
		}
		card := e.count(x, float64(stats.GroupCardinality(int64(in.card), distincts)))
		out := nodeEst{card: card, computed: true, width: rowHeader + computedWidth*float64(len(x.GroupBy)+len(x.Aggs)), res: in.res}
		out.res.Add(x.Charge(in.card))
		return out, nil

	case *exec.Sort:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		out := in
		out.res.Add(x.Charge(in.card))
		return out, nil

	case *exec.Distinct:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		out := in
		out.card = e.count(x, in.card)
		out.res.Add(x.Charge(in.card))
		return out, nil

	case *exec.Limit:
		in, err := e.estimate(x.Input)
		if err != nil {
			return nodeEst{}, err
		}
		out := in
		if out.card > float64(x.N) {
			out.card = float64(x.N)
		}
		return out, nil

	default:
		return nodeEst{}, fmt.Errorf("remote: estimator does not know operator %T", op)
	}
}

// computedWidth is what a select item costs per row when statistics cannot
// size it — an expression, an aggregate, a column of an aggregation's output —
// and rowHeader the per-row framing of a result with such an item: both are
// the row model's guesses, kept as they were.
const (
	computedWidth = 12
	rowHeader     = 4
)

// projectWidth is the bytes per row a select list ships: * ships its input
// whole, a bare column of a base table — qualified or not — its encoded width
// from the column's statistics, anything else the row model's guess.
func (e *estimator) projectWidth(items []sqlparser.SelectItem, in nodeEst) float64 {
	width, rowModel := 0.0, false
	for _, item := range items {
		if item.Star {
			width += in.width
			continue
		}
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && !in.computed {
			if i, err := e.schema.ColumnIndex(ref.Table, ref.Name); err == nil {
				c := e.schema.Columns[i]
				if cs := e.provider.TableStats(c.Table).Column(c.Name); cs != nil {
					width += cs.WireBytes
					continue
				}
			}
		}
		width, rowModel = width+computedWidth, true
	}
	if rowModel {
		width += rowHeader
	}
	return width
}

// probeSelectivity estimates the fraction of rows an index probe returns.
func (e *estimator) probeSelectivity(x *exec.IndexScan, ts *stats.TableStats) float64 {
	cs := ts.Column(x.Index.Column())
	if x.Probe.Eq != nil {
		if cs != nil && cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return stats.DefaultEqSelectivity
	}
	if cs == nil || cs.Hist == nil {
		return stats.DefaultRangeSelectivity
	}
	lo, hi := 0.0, 1.0
	if x.Probe.Lo != nil {
		lo = cs.Hist.SelectivityLE(x.Probe.Lo.Float())
	}
	if x.Probe.Hi != nil {
		hi = cs.Hist.SelectivityLE(x.Probe.Hi.Float())
	}
	s := hi - lo
	if s <= 0 {
		s = 1e-6
	}
	return s
}

// keyStats returns the statistics of a key expression that is a bare column
// of a base table — qualified or not — and nil for any other key.
func (e *estimator) keyStats(key sqlparser.Expr) *stats.ColumnStats {
	if ref, ok := key.(*sqlparser.ColumnRef); ok {
		if i, err := e.schema.ColumnIndex(ref.Table, ref.Name); err == nil {
			c := e.schema.Columns[i]
			return e.provider.TableStats(c.Table).Column(c.Name)
		}
	}
	return nil
}

// keyDistinct estimates the number of distinct values a key expression
// takes; a bare column of a base table uses its statistics, anything else
// assumes the input cardinality.
func (e *estimator) keyDistinct(key sqlparser.Expr, inputCard float64) int64 {
	if cs := e.keyStats(key); cs != nil && cs.Distinct > 0 {
		return cs.Distinct
	}
	d := int64(inputCard)
	if d < 1 {
		d = 1
	}
	return d
}

// indexEntries is what an index on column holds: the table's rows whose
// column is not NULL.
func indexEntries(ts *stats.TableStats, column string) float64 {
	if cs := ts.Column(column); cs != nil {
		return float64(ts.RowCount - cs.NullCount)
	}
	return float64(ts.RowCount)
}

func columnDistinct(ts *stats.TableStats, column string) int64 {
	if cs := ts.Column(column); cs != nil && cs.Distinct > 0 {
		return cs.Distinct
	}
	return ts.RowCount
}
