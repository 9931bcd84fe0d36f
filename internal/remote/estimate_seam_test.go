package remote

import (
	"repro/internal/exec"
	"repro/internal/sqlparser"
)

// Counted is what executing one node of a plan counted: its output rows and,
// for an index join, its non-NULL probes and its matches before the residual.
type Counted struct{ Card, Probes, Matches float64 }

// EstimateCounted prices root, one of s's plans for stmt, as the planner
// does, with observed standing in for the estimated counts at every node it
// names. A nil stmt estimates a tree over Values leaves, which need no
// statistics.
func EstimateCounted(s *Server, stmt *sqlparser.SelectStmt, root exec.Operator, observed map[exec.Operator]Counted) (exec.Resources, error) {
	est := &estimator{server: s, observed: map[exec.Operator]counts{}}
	for op, c := range observed {
		est.observed[op] = counts{card: c.Card, probes: c.Probes, matches: c.Matches}
	}
	if stmt != nil {
		f, err := s.bind(stmt)
		if err != nil {
			return exec.Resources{}, err
		}
		est.provider, est.tables, est.schema = f.stats, f.facts, f.schema
	}
	ne, err := est.estimate(root)
	return ne.res, err
}
