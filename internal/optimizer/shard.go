// Shard-aware decomposition: sharded nicknames expand into per-shard
// fragments (scatter-gather), predicates on the shard key prune the shard
// set, and aggregate queries over a single sharded table push partial
// aggregation into each shard's fragment (two-phase aggregation; the II
// merges partial states with exec.ShardAggFinal).
package optimizer

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// DecomposeOpts has no fields: shard handling is not an option. A sharded
// aggregate whose group keys are columns and whose aggregates are
// COUNT/SUM/AVG/MIN/MAX always ships partial states, and predicates on a
// shard key always prune.
//
// Deprecated: kept only for the benchmark harness, which passes it to
// DecomposeWith.
type DecomposeOpts struct{}

// ShardRef marks a fragment as one shard of a logical fragment.
type ShardRef struct {
	// Nickname is the sharded nickname.
	Nickname string
	// Index is the shard index.
	Index int
	// Of is the logical fragment ID this shard fragment belongs to; the
	// integrator concatenates all fragments sharing Of before merging.
	Of string
}

// PartialAggPlan records the two-phase aggregation pushed into shard
// fragments; the II finishes it with exec.ShardAggFinal.
type PartialAggPlan struct {
	GroupBy []sqlparser.Expr
	Aggs    []*sqlparser.AggExpr
}

// ShardPlan summarizes how a single-group sharded statement was split.
type ShardPlan struct {
	// Nickname is the sharded table.
	Nickname string
	// FragID is the logical fragment ID the shards belong to.
	FragID string
	// Total is the shard count of the shard map.
	Total int
	// Executed lists the shard indexes that survived pruning, ascending.
	Executed []int
	// Partial is non-nil when partial aggregation was pushed into the
	// shard fragments.
	Partial *PartialAggPlan
	// Base is the logical fragment's pre-aggregation qualified schema.
	Base *sqltypes.Schema
}

// shardTableRef names shard idx of the nickname while keeping the original
// effective name as the alias, so every predicate and projection in the
// statement resolves unchanged at the remote server.
func shardTableRef(nickname string, idx int, tr sqlparser.TableRef) sqlparser.TableRef {
	return sqlparser.TableRef{Name: catalog.ShardTableName(nickname, idx), Alias: tr.EffectiveName()}
}

func shardServers(sh catalog.Shard) []string {
	out := make([]string, len(sh.Placements))
	for i, p := range sh.Placements {
		out[i] = p.ServerID
	}
	sort.Strings(out)
	return out
}

// decomposeShardedSingle handles a statement whose FROM clause is exactly
// one sharded table. Pruning to a single shard pushes the whole statement
// to that shard (a normal single-fragment plan); otherwise the statement
// scatter-gathers, shipping partial aggregate states when the query's
// aggregation is partialable and the rows' columns its tail reads when it is
// not.
func decomposeShardedSingle(stmt *sqlparser.SelectStmt, nick *catalog.Nickname, tr sqlparser.TableRef, schema *sqltypes.Schema) (*Decomposition, error) {
	d := &Decomposition{Stmt: stmt}
	conjuncts := sqlparser.DropTrueLiterals(sqlparser.SplitConjuncts(stmt.Where))
	executed := pruneShards(nick, tr.EffectiveName(), conjuncts)
	plan := &ShardPlan{
		Nickname: nick.Name,
		FragID:   "QF1",
		Total:    len(nick.Shards),
		Executed: executed,
		Base:     schema,
	}
	d.Sharded = plan

	if len(executed) == 1 {
		// All candidate rows live on one shard: push the entire statement,
		// exactly like an unsharded single-fragment plan.
		idx := executed[0]
		full := *stmt
		full.From = shardTableRef(nick.Name, idx, tr)
		d.SingleFragment = true
		d.Fragments = []*FragmentSpec{{
			ID:         fmt.Sprintf("QF1.s%d", idx),
			Tables:     []sqlparser.TableRef{tr},
			Stmt:       &full,
			Candidates: shardServers(nick.Shards[idx]),
			Shard:      &ShardRef{Nickname: nick.Name, Index: idx, Of: "QF1"},
		}}
		return d, nil
	}

	if (stmt.HasAggregates() || len(stmt.GroupBy) > 0) && groupKeysAreColumns(stmt.GroupBy) {
		if aggs, err := exec.StatementAggregates(stmt); err == nil && aggsArePartialable(aggs) {
			plan.Partial = &PartialAggPlan{GroupBy: stmt.GroupBy, Aggs: aggs}
		}
	}

	// What every shard selects: the group keys and partial aggregate states
	// under pushdown, otherwise the columns the statement's tail reads (WHERE
	// runs at the shards either way).
	var items []sqlparser.SelectItem
	var groupBy []sqlparser.Expr
	if plan.Partial != nil {
		groupBy = stmt.GroupBy
		for _, g := range groupBy {
			items = append(items, sqlparser.SelectItem{Expr: g})
		}
		items = append(items, exec.PartialAggItems(plan.Partial.Aggs)...)
	} else {
		star, refs := readOutside(stmt, nil)
		items = shipList(schema, star, refs)
	}
	for _, idx := range executed {
		fragStmt := &sqlparser.SelectStmt{
			Select:  items,
			From:    shardTableRef(nick.Name, idx, tr),
			Where:   stmt.Where,
			GroupBy: groupBy,
			Limit:   -1,
		}
		d.Fragments = append(d.Fragments, &FragmentSpec{
			ID:         fmt.Sprintf("QF1.s%d", idx),
			Tables:     []sqlparser.TableRef{tr},
			Stmt:       fragStmt,
			Candidates: shardServers(nick.Shards[idx]),
			Shard:      &ShardRef{Nickname: nick.Name, Index: idx, Of: "QF1"},
		})
	}
	return d, nil
}

// shardGatherFragments expands one sharded group of a multi-group
// decomposition into per-shard fragments selecting ship and carrying the
// group's pushed conjuncts; the integrator concatenates them before joining.
func shardGatherFragments(nick *catalog.Nickname, tr sqlparser.TableRef, logicalID string, ship []sqlparser.SelectItem, pushed []sqlparser.Expr) []*FragmentSpec {
	executed := pruneShards(nick, tr.EffectiveName(), pushed)
	var out []*FragmentSpec
	for _, idx := range executed {
		fragStmt := &sqlparser.SelectStmt{
			Select: ship,
			From:   shardTableRef(nick.Name, idx, tr),
			Where:  sqlparser.JoinConjuncts(pushed),
			Limit:  -1,
		}
		out = append(out, &FragmentSpec{
			ID:         fmt.Sprintf("%s.s%d", logicalID, idx),
			Tables:     []sqlparser.TableRef{tr},
			Stmt:       fragStmt,
			Candidates: shardServers(nick.Shards[idx]),
			Shard:      &ShardRef{Nickname: nick.Name, Index: idx, Of: logicalID},
		})
	}
	return out
}

func groupKeysAreColumns(groupBy []sqlparser.Expr) bool {
	for _, g := range groupBy {
		if _, ok := g.(*sqlparser.ColumnRef); !ok {
			return false
		}
	}
	return true
}

func aggsArePartialable(aggs []*sqlparser.AggExpr) bool {
	for _, a := range aggs {
		switch a.Func {
		case sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax:
		default:
			return false
		}
	}
	return true
}

// pruneShards intersects each conjunct's candidate shard set. A conjunct
// that does not constrain the shard key contributes no restriction; an
// unsatisfiable conjunction keeps one shard (it returns no rows anyway, and
// scalar aggregation still needs a partial row).
func pruneShards(nick *catalog.Nickname, eff string, conjuncts []sqlparser.Expr) []int {
	n := len(nick.Shards)
	all := func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if nick.Sharding == nil || n <= 1 {
		return all()
	}
	var mask []bool // nil = unconstrained
	for _, c := range conjuncts {
		set := shardSetFor(nick.Sharding, n, eff, c)
		if set == nil {
			continue
		}
		if mask == nil {
			mask = set
			continue
		}
		for i := range mask {
			mask[i] = mask[i] && set[i]
		}
	}
	if mask == nil {
		return all()
	}
	var out []int
	for i, keep := range mask {
		if keep {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// shardSetFor returns the shards conjunct e could match rows on, or nil when
// e does not constrain the shard key. Pruning is conservative: it only ever
// drops shards whose rows provably cannot satisfy e. NULL shard keys are
// safe because every recognized form is a comparison or membership test
// (never true for NULL) except IS NULL, which maps NULL to its home shard.
func shardSetFor(spec *catalog.ShardSpec, n int, eff string, e sqlparser.Expr) []bool {
	only := func(idx int) []bool {
		set := make([]bool, n)
		set[idx] = true
		return set
	}
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		var key sqltypes.Value
		var op sqlparser.BinaryOp
		if isShardKeyRef(x.Left, spec, eff) {
			v, ok := litValue(x.Right)
			if !ok {
				return nil
			}
			key, op = v, x.Op
		} else if isShardKeyRef(x.Right, spec, eff) {
			v, ok := litValue(x.Left)
			if !ok {
				return nil
			}
			key, op = v, x.Op.Flip()
		} else {
			return nil
		}
		switch op {
		case sqlparser.OpEq:
			return only(spec.ShardFor(key, n))
		case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			if spec.Method != catalog.ShardRange {
				return nil
			}
			return rangeSet(spec, n, op, key)
		default:
			return nil
		}
	case *sqlparser.InExpr:
		if x.Negate || !isShardKeyRef(x.Needle, spec, eff) {
			return nil
		}
		set := make([]bool, n)
		for _, it := range x.List {
			v, ok := litValue(it)
			if !ok {
				return nil
			}
			set[spec.ShardFor(v, n)] = true
		}
		return set
	case *sqlparser.BetweenExpr:
		if x.Negate || spec.Method != catalog.ShardRange || !isShardKeyRef(x.Subject, spec, eff) {
			return nil
		}
		lo, okLo := litValue(x.Lo)
		hi, okHi := litValue(x.Hi)
		if !okLo || !okHi {
			return nil
		}
		ge := rangeSet(spec, n, sqlparser.OpGe, lo)
		le := rangeSet(spec, n, sqlparser.OpLe, hi)
		for i := range ge {
			ge[i] = ge[i] && le[i]
		}
		return ge
	case *sqlparser.IsNullExpr:
		if x.Negate || !isShardKeyRef(x.Inner, spec, eff) {
			return nil
		}
		return only(spec.ShardFor(sqltypes.Null, n))
	default:
		return nil
	}
}

// rangeSet marks the shards of a range-sharded table whose interval
// [lower, upper) can contain a value v with `v op c`. Shard i's lower bound
// is Bounds[i-1] (-inf for shard 0) and its exclusive upper bound is
// Bounds[i] (+inf for the last shard).
func rangeSet(spec *catalog.ShardSpec, n int, op sqlparser.BinaryOp, c sqltypes.Value) []bool {
	set := make([]bool, n)
	for i := 0; i < n; i++ {
		switch op {
		case sqlparser.OpLt:
			// Needs lower < c.
			set[i] = i == 0 || sqltypes.Compare(spec.Bounds[i-1], c) < 0
		case sqlparser.OpLe:
			// Needs lower <= c.
			set[i] = i == 0 || sqltypes.Compare(spec.Bounds[i-1], c) <= 0
		case sqlparser.OpGt, sqlparser.OpGe:
			// Needs some v >= c with v < upper, i.e. upper > c (upper is
			// exclusive, so upper == c cannot host v >= c).
			set[i] = i == n-1 || sqltypes.Compare(spec.Bounds[i], c) > 0
		}
	}
	return set
}

func isShardKeyRef(e sqlparser.Expr, spec *catalog.ShardSpec, eff string) bool {
	ref, ok := e.(*sqlparser.ColumnRef)
	return ok && ref.Name == spec.Column && (ref.Table == "" || ref.Table == eff)
}

func litValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return sqltypes.Null, false
	}
	return lit.Val, true
}
