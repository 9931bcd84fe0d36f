package remote

// The reference planner: the enumerate-then-assemble loop Explain ran before
// the bind-once planner replaced it, moved here verbatim (only the names that
// would collide carry a "ref" prefix, the statement cache, the final sort
// and the MaxPlans cut are left to the caller, and the merge-join slot,
// still counted, is rejected like any invalid choice). It re-derives the statement
// for every plan choice and prunes with errors, which is exactly why it left
// production; it stays as the oracle planner_oracle_test.go compares the
// production planner against.

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
)

// accessChoice selects the access path for one table: "" means sequential
// scan, otherwise the named index is probed.
type accessChoice struct {
	index string
}

// planChoice is one point in the physical plan space.
type planChoice struct {
	access map[string]accessChoice // keyed by effective table name
	joins  []joinAlgo              // one per join step (len(tables)-1)
}

// RefEnumerate is the reference for Server.enumerate: every valid, distinct
// plan in visiting order and the number of combinations visited.
func (s *Server) RefEnumerate(stmt *sqlparser.SelectStmt) ([]*Plan, int, error) {
	tables := stmt.Tables()
	aliasToTable := map[string]string{}
	for _, tr := range tables {
		tab := s.Table(tr.Name)
		if tab == nil {
			return nil, 0, fmt.Errorf("remote: server %s does not host table %q", s.id, tr.Name)
		}
		aliasToTable[tr.EffectiveName()] = tr.Name
	}
	physNames := refPhysicalTables(aliasToTable)

	// Per-table access path candidates.
	accessCands := map[string][]accessChoice{}
	for _, tr := range tables {
		name := tr.EffectiveName()
		cands := []accessChoice{{}}
		for _, idx := range readFacts(s.Table(tr.Name)).indexes {
			cands = append(cands, accessChoice{index: idx.Name()})
		}
		accessCands[name] = cands
	}
	// Per-join-step algorithm candidates (validity is re-checked during
	// assembly; invalid combinations are skipped).
	joinCands := make([][]joinAlgo, len(tables)-1)
	for i := range joinCands {
		joinCands[i] = []joinAlgo{joinHash, joinINL, joinMerge, joinNL}
	}

	// The estimator resolves select-list columns against the joined schema
	// (added with the per-column wire widths, after this loop left production).
	var joined *sqltypes.Schema
	for _, tr := range tables {
		sch := s.Table(tr.Name).Schema().WithQualifier(tr.EffectiveName())
		if joined != nil {
			sch = joined.Concat(sch)
		}
		joined = sch
	}
	facts := map[*storage.Table]tableFacts{}
	for _, tr := range tables {
		facts[s.Table(tr.Name)] = readFacts(s.Table(tr.Name))
	}
	est := &estimator{provider: s.refStatsProviderFor(aliasToTable), tables: facts, server: s, schema: joined}
	seen := map[string]bool{}
	var plans []*Plan
	count := 0
	var walk func(ti int, choice planChoice)
	walk = func(ti int, choice planChoice) {
		if count >= maxEnumeratedPlans {
			return
		}
		if ti < len(tables) {
			name := tables[ti].EffectiveName()
			for _, ac := range accessCands[name] {
				next := choice
				next.access = copyAccess(choice.access)
				next.access[name] = ac
				walk(ti+1, next)
			}
			return
		}
		if len(choice.joins) < len(tables)-1 {
			for _, ja := range joinCands[len(choice.joins)] {
				next := choice
				next.joins = append(append([]joinAlgo{}, choice.joins...), ja)
				walk(ti, next)
			}
			return
		}
		count++
		root, err := s.refAssemble(stmt, choice)
		if err != nil {
			return // invalid combination (e.g. INL without usable index)
		}
		sig := exec.ExplainTree(root)
		if seen[sig] {
			return
		}
		seen[sig] = true
		ce, err := est.estimatePlan(root)
		if err != nil {
			return
		}
		plans = append(plans, &Plan{
			ServerID:  s.id,
			SQL:       stmt.String(),
			Root:      root,
			Signature: sig,
			Est:       ce,
			Tables:    physNames,
		})
	}
	walk(0, planChoice{})
	return plans, count, nil
}

// Enumerate exposes the production enumeration to the external oracle test.
func (s *Server) Enumerate(stmt *sqlparser.SelectStmt) ([]*Plan, int, error) {
	return s.enumerate(stmt, stmt.String())
}

// refPhysicalTables returns the sorted, deduplicated physical table names from
// an alias map.
func refPhysicalTables(aliasToTable map[string]string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(aliasToTable))
	for _, t := range aliasToTable {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func copyAccess(m map[string]accessChoice) map[string]accessChoice {
	out := make(map[string]accessChoice, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// StatsProvider returns a stats provider resolving the aliases in stmt to
// this server's tables.
func (s *Server) refStatsProviderFor(aliasToTable map[string]string) stats.StatsProvider {
	m := stats.MapProvider{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for alias, table := range aliasToTable {
		if t := s.tables[table]; t != nil {
			m[alias] = readFacts(t).stats
		}
	}
	return m
}

// refAssemble builds the operator tree for one plan choice, mirroring
// exec.BuildPlan's predicate placement but honoring access-path and
// join-algorithm choices. It returns an error for invalid choices.
func (s *Server) refAssemble(stmt *sqlparser.SelectStmt, choice planChoice) (exec.Operator, error) {
	tables := stmt.Tables()

	var pool []sqlparser.Expr
	pool = append(pool, sqlparser.SplitConjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		pool = append(pool, sqlparser.SplitConjuncts(j.On)...)
	}
	pool = dropTrue(pool)

	// Partition the pool into per-table conjuncts and cross-table conjuncts.
	perTable := map[string][]sqlparser.Expr{}
	var cross []sqlparser.Expr
	for _, c := range pool {
		placed := false
		for _, tr := range tables {
			name := tr.EffectiveName()
			tab := s.Table(tr.Name)
			sch := tab.Schema().WithQualifier(name)
			if resolvesAll(c, sch) {
				perTable[name] = append(perTable[name], c)
				placed = true
				break
			}
		}
		if !placed {
			cross = append(cross, c)
		}
	}

	// Track which inner tables are consumed by INL joins: their leaves are
	// not built independently.
	inlInner := map[string]bool{}
	for i, ja := range choice.joins {
		if ja == joinINL {
			inlInner[tables[i+1].EffectiveName()] = true
		}
	}

	// Build leaves.
	leaves := map[string]exec.Operator{}
	for _, tr := range tables {
		name := tr.EffectiveName()
		if inlInner[name] {
			continue
		}
		tab := s.Table(tr.Name)
		ac := choice.access[name]
		conjuncts := perTable[name]
		var leaf exec.Operator
		if ac.index == "" {
			leaf = &exec.SeqScan{Table: tab, As: name}
		} else {
			var idx *storage.Index
			for _, ix := range readFacts(tab).indexes {
				if ix.Name() == ac.index {
					idx = ix
				}
			}
			probe, rest, ok := exec.ProbeFromPredicate(conjuncts, name, idx.Column())
			if !ok {
				return nil, fmt.Errorf("remote: no probe for index %s", ac.index)
			}
			if probe.Eq == nil && idx.Kind() == storage.IndexHash {
				return nil, fmt.Errorf("remote: hash index %s cannot serve range", ac.index)
			}
			leaf = &exec.IndexScan{Table: tab, Index: idx, Probe: probe, As: name}
			conjuncts = rest
		}
		if len(conjuncts) > 0 {
			leaf = &exec.Filter{Input: leaf, Pred: sqlparser.JoinConjuncts(conjuncts)}
		}
		leaves[name] = leaf
	}

	current := leaves[tables[0].EffectiveName()]
	if current == nil {
		return nil, fmt.Errorf("remote: first table cannot be an INL inner")
	}
	for step, tr := range tables[1:] {
		name := tr.EffectiveName()
		tab := s.Table(tr.Name)
		algo := choice.joins[step]
		innerSchema := tab.Schema().WithQualifier(name)

		lk, rk, rest, hasKey := exec.ExtractEquiJoinKeys(cross, current.Schema(), innerSchema)
		switch algo {
		case joinHash:
			if !hasKey {
				return nil, fmt.Errorf("remote: no equi key for hash join with %s", name)
			}
			right := leaves[name]
			joined := current.Schema().Concat(right.Schema())
			residuals, remaining := partitionResolvable(rest, joined)
			current = &exec.HashJoin{
				Build:    current,
				Probe:    right,
				BuildKey: lk,
				ProbeKey: rk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
		case joinMerge:
			// Merge joins left the plan space; the slot is still counted.
			return nil, fmt.Errorf("remote: merge joins are not in the plan space")
		case joinINL:
			if !hasKey {
				return nil, fmt.Errorf("remote: no equi key for INL join with %s", name)
			}
			rref, ok := rk.(*sqlparser.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("remote: INL inner key must be a column")
			}
			idx := storage.IndexOnColumn(readFacts(tab).indexes, rref.Name)
			if idx == nil {
				return nil, fmt.Errorf("remote: no index on %s.%s for INL", name, rref.Name)
			}
			joined := current.Schema().Concat(innerSchema)
			residuals, remaining := partitionResolvable(rest, joined)
			// Inner single-table conjuncts also become residuals.
			residuals = append(residuals, perTable[name]...)
			current = &exec.IndexNLJoin{
				Outer:    current,
				Inner:    tab,
				Index:    idx,
				InnerAs:  name,
				OuterKey: lk,
				Residual: sqlparser.JoinConjuncts(residuals),
			}
			cross = remaining
		case joinNL:
			if hasKey {
				// Let hash/INL cover keyed joins; NL duplicates them with
				// strictly worse cost, so reject to prune the space.
				return nil, fmt.Errorf("remote: NL join pruned when equi key exists")
			}
			right := leaves[name]
			joined := current.Schema().Concat(right.Schema())
			preds, remaining := partitionResolvable(cross, joined)
			current = &exec.NestedLoopJoin{Outer: current, Inner: right, Pred: sqlparser.JoinConjuncts(preds)}
			cross = remaining
		}
	}
	if len(cross) > 0 {
		current = &exec.Filter{Input: current, Pred: sqlparser.JoinConjuncts(cross)}
	}
	return exec.BuildTop(stmt, current)
}

func resolvesAll(e sqlparser.Expr, schema interface {
	ColumnIndex(table, name string) (int, error)
}) bool {
	for _, ref := range sqlparser.CollectColumnRefs(e, nil) {
		if _, err := schema.ColumnIndex(ref.Table, ref.Name); err != nil {
			return false
		}
	}
	return true
}

func partitionResolvable(list []sqlparser.Expr, schema interface {
	ColumnIndex(table, name string) (int, error)
}) (resolvable, remaining []sqlparser.Expr) {
	for _, c := range list {
		if resolvesAll(c, schema) {
			resolvable = append(resolvable, c)
		} else {
			remaining = append(remaining, c)
		}
	}
	return resolvable, remaining
}
