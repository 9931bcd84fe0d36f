package remote

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// joinAlgo selects the physical join implementation for one join step.
type joinAlgo uint8

const (
	joinHash joinAlgo = iota
	joinINL
	joinMerge // counted by the enumeration, never valid (see valid)
	joinNL
)

// maxEnumeratedPlans bounds the enumeration to keep Explain cheap. It counts
// every combination visited, valid or not.
const maxEnumeratedPlans = 128

// Explain enumerates candidate plans for the fragment statement, estimates
// each with the local cost model (statistics + hardware, zero load), and
// returns the cheapest MaxPlans plans with distinct signatures — the
// wrapper-visible "possible supported execution plans and their estimated
// costs". A down server refuses to explain, like a source that cannot be
// contacted.
func (s *Server) Explain(stmt *sqlparser.SelectStmt) ([]*Plan, error) {
	return s.ExplainSQL(stmt, stmt.String())
}

// ExplainSQL is Explain for a caller that already rendered stmt's text as sql:
// the statement cache's key and every plan's SQL.
func (s *Server) ExplainSQL(stmt *sqlparser.SelectStmt, sql string) ([]*Plan, error) {
	if s.Down() {
		return nil, &ErrServerDown{ID: s.id}
	}
	versions, cacheable := s.statementVersions(stmt)
	if cacheable {
		if plans := s.planCache.lookup(sql, versions); plans != nil {
			s.telemetry().Active().Counter("remote.stmtcache_hits", s.id).Inc()
			return plans, nil
		}
		s.telemetry().Active().Counter("remote.stmtcache_misses", s.id).Inc()
	}
	plans, _, err := s.enumerate(stmt, sql)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("remote: server %s found no valid plan for %q", s.id, sql)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Est.TotalMS < plans[j].Est.TotalMS })
	if len(plans) > s.maxPlans {
		// The statement cache keeps what is returned, and with it the backing
		// array: the candidates cut off must not stay reachable through it.
		clear(plans[s.maxPlans:])
		plans = plans[:s.maxPlans]
	}
	if cacheable {
		s.planCache.insert(sql, plans, versions)
	}
	return plans, nil
}

// enumerate binds the statement once and enumerates the bound fragment's
// plans.
func (s *Server) enumerate(stmt *sqlparser.SelectStmt, sql string) ([]*Plan, int, error) {
	f, err := s.bind(stmt)
	if err != nil {
		return nil, 0, err
	}
	return f.enumerate(s, sql)
}

// enumerate visits the plan space — one access path per table (outermost, in
// FROM order), one algorithm per join step — in a fixed order, building and
// estimating a plan for each combination that is valid and names a plan no
// earlier combination named. It returns those plans in visiting order and the
// number of combinations visited. A plan the estimator cannot cost fails the
// whole enumeration: a shorter candidate list would hide the gap.
func (f *boundFragment) enumerate(s *Server, sql string) ([]*Plan, int, error) {
	n := len(f.tables)
	access := make([]int, n) // access[i] indexes tables[i].leaves
	algos := make([]joinAlgo, n-1)
	est := &estimator{provider: f.stats, tables: f.facts, server: s, schema: f.schema}
	physNames := f.physicalTables()
	var plans []*Plan
	visited := 0
	var walk func(depth int) error
	walk = func(depth int) error {
		switch {
		case visited >= maxEnumeratedPlans:
		case depth < n:
			for a := range f.tables[depth].leaves {
				access[depth] = a
				if err := walk(depth + 1); err != nil {
					return err
				}
			}
		case depth < 2*n-1:
			for a := joinHash; a <= joinNL; a++ {
				algos[depth-n] = a
				if err := walk(depth + 1); err != nil {
					return err
				}
			}
		default:
			visited++
			if !f.valid(access, algos) {
				return nil
			}
			root := f.build(access, algos)
			ce, err := est.estimatePlan(root)
			if err != nil {
				return fmt.Errorf("remote: server %s cannot cost a plan for %q: %w", s.id, sql, err)
			}
			plans = append(plans, &Plan{
				ServerID:  s.id,
				SQL:       sql,
				Root:      root,
				Signature: exec.ExplainTree(root),
				Est:       ce,
				Tables:    physNames,
			})
		}
		return nil
	}
	err := walk(0)
	return plans, visited, err
}

// boundFragment is a fragment statement resolved against this server's
// tables: everything plan construction needs that does not depend on the plan
// choice, computed once per Explain. Plans share its leaves and predicate
// expressions (both immutable) but never reference the fragment itself.
type boundFragment struct {
	tables []boundTable
	// steps[i] joins tables[i+1] onto the join of tables[0..i].
	steps []joinStep
	// rest holds the cross-table conjuncts no join step could place; it
	// filters the last join's output.
	rest sqlparser.Expr
	// top is the statement's non-join tail, planned against the full join's
	// schema.
	top    exec.Top
	stats  stats.MapProvider // keyed by effective table name
	schema *sqltypes.Schema  // the tables joined in FROM order
	// facts is what the bind read of each distinct table, through one view.
	facts map[*storage.Table]tableFacts
}

// tableFacts is a table's statistics, page count and indexes (in name order)
// at one version.
type tableFacts struct {
	stats   *stats.TableStats
	pages   int
	indexes []*storage.Index
}

func readFacts(tab *storage.Table) tableFacts {
	v := tab.View()
	defer v.Close()
	return tableFacts{stats: v.Stats(), pages: v.Pages(), indexes: v.Indexes()}
}

// boundTable is one FROM-clause table of a bound fragment.
type boundTable struct {
	name string // effective (aliased) name
	tab  *storage.Table
	// conjuncts are the predicates that reference this table alone.
	conjuncts []sqlparser.Expr
	// leaves holds one access operator per access path — the sequential scan
	// first, then each index in name order — with the conjuncts the path does
	// not absorb filtered on top; nil where the index cannot serve them.
	leaves []exec.Operator
}

// joinStep is what joining one more table needs whatever the algorithm: the
// equi-join key and the residual predicate depend only on which tables are
// already joined, and the FROM order fixes that.
type joinStep struct {
	// lk = rk (joined side, new table) is the equi-join key; nil when no
	// remaining cross conjunct equates a column of each side.
	lk, rk sqlparser.Expr
	// residual holds the remaining cross conjuncts that resolve once the new
	// table is joined — without a key, the nested loop's whole predicate.
	residual sqlparser.Expr
	// inlIndex is the new table's index on rk, nil when an index nested-loop
	// join is impossible. That join has no inner leaf, so inlResidual also
	// carries the new table's own conjuncts.
	inlIndex    *storage.Index
	inlResidual sqlparser.Expr
}

// bind resolves the statement's tables, classifies its WHERE/ON conjuncts by
// the tables they reference, and precomputes per-table access leaves,
// per-step join keys and residuals, and the planned tail.
func (s *Server) bind(stmt *sqlparser.SelectStmt) (*boundFragment, error) {
	refs := stmt.Tables()
	f := &boundFragment{
		tables: make([]boundTable, len(refs)),
		steps:  make([]joinStep, len(refs)-1),
		stats:  stats.MapProvider{},
		facts:  map[*storage.Table]tableFacts{},
	}
	schemas := make([]*sqltypes.Schema, len(refs))
	for i, tr := range refs {
		tab := s.Table(tr.Name)
		if tab == nil {
			return nil, fmt.Errorf("remote: server %s does not host table %q", s.id, tr.Name)
		}
		name := tr.EffectiveName()
		f.tables[i] = boundTable{name: name, tab: tab}
		schemas[i] = tab.Schema().WithQualifier(name)
		if _, read := f.facts[tab]; !read {
			f.facts[tab] = readFacts(tab)
		}
		f.stats[name] = f.facts[tab].stats
	}

	var pool []sqlparser.Expr
	pool = append(pool, sqlparser.SplitConjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		pool = append(pool, sqlparser.SplitConjuncts(j.On)...)
	}
	var cross []conjunct
	for _, e := range dropTrue(pool) {
		c := conjunct{expr: e, refs: sqlparser.CollectColumnRefs(e, nil)}
		placed := false
		for i := range f.tables {
			if c.resolvesIn(schemas[i]) {
				f.tables[i].conjuncts = append(f.tables[i].conjuncts, c.expr)
				placed = true
				break
			}
		}
		if !placed {
			cross = append(cross, c)
		}
	}

	for i := range f.tables {
		t := &f.tables[i]
		t.leaves = append(t.leaves, filtered(&exec.SeqScan{Table: t.tab, As: t.name}, t.conjuncts))
		for _, idx := range f.facts[t.tab].indexes {
			var leaf exec.Operator
			probe, rest, ok := exec.ProbeFromPredicate(t.conjuncts, t.name, idx.Column())
			// A hash index cannot serve a range probe.
			if ok && (probe.Eq != nil || idx.Kind() != storage.IndexHash) {
				leaf = filtered(&exec.IndexScan{Table: t.tab, Index: idx, Probe: probe, As: t.name}, rest)
			}
			t.leaves = append(t.leaves, leaf)
		}
	}

	joined := schemas[0]
	for i := range f.steps {
		st, inner := &f.steps[i], &f.tables[i+1]
		for k, c := range cross {
			if lk, rk, ok := exec.EquiJoinKey(c.expr, joined, schemas[i+1]); ok {
				st.lk, st.rk = lk, rk
				st.inlIndex = storage.IndexOnColumn(f.facts[inner.tab].indexes, rk.Name)
				cross = append(cross[:k:k], cross[k+1:]...)
				break
			}
		}
		joined = joined.Concat(schemas[i+1])
		var residuals []sqlparser.Expr
		residuals, cross = splitResolvable(cross, joined)
		st.residual = sqlparser.JoinConjuncts(residuals)
		if st.inlIndex != nil {
			st.inlResidual = sqlparser.JoinConjuncts(append(residuals, inner.conjuncts...))
		}
	}
	var rest []sqlparser.Expr
	for _, c := range cross {
		rest = append(rest, c.expr)
	}
	f.rest = sqlparser.JoinConjuncts(rest)

	f.schema = joined
	var err error
	f.top, err = exec.PlanTop(stmt, joined)
	return f, err
}

// valid reports whether a combination names a plan that exists and that no
// earlier combination named; no operator is built to decide it.
func (f *boundFragment) valid(access []int, algos []joinAlgo) bool {
	for i := range f.tables {
		if i > 0 && algos[i-1] == joinINL {
			// The join probes the inner table itself, so the inner's access
			// path is not part of the plan: every value after the first
			// (visited earlier) repeats that plan.
			if access[i] != 0 {
				return false
			}
		} else if f.tables[i].leaves[access[i]] == nil {
			return false
		}
	}
	for i, st := range f.steps {
		switch algos[i] {
		case joinMerge:
			// No merge-join plan exists: the hash join covers every keyed
			// join at lower cost. The slot stays in the visiting order because
			// maxEnumeratedPlans counts it; dropping it would move which plans
			// the cap reaches (ROADMAP item 11).
			return false
		case joinNL:
			// Hash and INL cover keyed joins; a nested loop duplicates them
			// at strictly worse cost, so it is pruned from the space.
			if st.lk != nil {
				return false
			}
		case joinINL:
			if st.inlIndex == nil {
				return false
			}
		default:
			if st.lk == nil {
				return false
			}
		}
	}
	return true
}

// build assembles the operator tree for a valid combination, mirroring
// exec.BuildPlan's predicate placement.
func (f *boundFragment) build(access []int, algos []joinAlgo) exec.Operator {
	current := f.tables[0].leaves[access[0]]
	for i, st := range f.steps {
		inner := &f.tables[i+1]
		right := inner.leaves[access[i+1]]
		switch algos[i] {
		case joinHash:
			current = &exec.HashJoin{Build: current, Probe: right, BuildKey: st.lk, ProbeKey: st.rk, Residual: st.residual}
		case joinINL:
			current = &exec.IndexNLJoin{Outer: current, Inner: inner.tab, Index: st.inlIndex, InnerAs: inner.name, OuterKey: st.lk, Residual: st.inlResidual}
		case joinNL:
			current = &exec.NestedLoopJoin{Outer: current, Inner: right, Pred: st.residual}
		}
	}
	if f.rest != nil {
		current = &exec.Filter{Input: current, Pred: f.rest}
	}
	return f.top.Build(current)
}

// physicalTables returns the sorted, deduplicated physical table names.
func (f *boundFragment) physicalTables() []string {
	names := make([]string, len(f.tables))
	for i, t := range f.tables {
		names[i] = t.tab.Name()
	}
	sort.Strings(names)
	out := names[:0]
	for _, name := range names {
		if len(out) == 0 || out[len(out)-1] != name {
			out = append(out, name)
		}
	}
	return out
}

// filtered puts the conjuncts, if any, on top of a leaf.
func filtered(leaf exec.Operator, conjuncts []sqlparser.Expr) exec.Operator {
	if len(conjuncts) == 0 {
		return leaf
	}
	return &exec.Filter{Input: leaf, Pred: sqlparser.JoinConjuncts(conjuncts)}
}

func dropTrue(list []sqlparser.Expr) []sqlparser.Expr {
	out := list[:0]
	for _, e := range list {
		if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Bool() {
			continue
		}
		out = append(out, e)
	}
	return out
}

// conjunct is one WHERE/ON conjunct with its column references, collected
// once however many schemas it is tested against.
type conjunct struct {
	expr sqlparser.Expr
	refs []*sqlparser.ColumnRef
}

func (c conjunct) resolvesIn(schema *sqltypes.Schema) bool {
	for _, ref := range c.refs {
		if _, err := schema.ColumnIndex(ref.Table, ref.Name); err != nil {
			return false
		}
	}
	return true
}

// splitResolvable partitions conjuncts into the expressions of those that
// resolve in schema and the conjuncts that do not, preserving order.
func splitResolvable(list []conjunct, schema *sqltypes.Schema) (resolvable []sqlparser.Expr, remaining []conjunct) {
	for _, c := range list {
		if c.resolvesIn(schema) {
			resolvable = append(resolvable, c.expr)
		} else {
			remaining = append(remaining, c)
		}
	}
	return resolvable, remaining
}
