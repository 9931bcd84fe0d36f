// Package optimizer implements the integrator's global query optimization:
// decomposing a federated query into per-source fragments (the paper's QF1,
// QF2, ...), collecting candidate plans and calibrated costs for each
// fragment through the meta-wrapper, enumerating global plan combinations,
// costing local merge work at the integrator, and selecting the winner that
// is stored in the explain table.
package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// FragmentSpec is one fragment of a decomposed federated query.
type FragmentSpec struct {
	// ID names the fragment (QF1, QF2, ... in paper notation).
	ID string
	// Tables are the query tables covered by this fragment.
	Tables []sqlparser.TableRef
	// Stmt is the fragment statement shipped to remote servers.
	Stmt *sqlparser.SelectStmt
	// SQL is Stmt's text (Stmt.String()), what every explain ships and keys
	// the server's statement cache with.
	SQL string
	// Sig is SQL's canonical form (sqlparser.CanonicalizeSQL) — the identity
	// under which QCC keeps calibration factors. DecomposeWith renders SQL and
	// computes Sig once; compile, routing and every dispatch reuse them.
	Sig string
	// Candidates are the servers hosting every table of the fragment —
	// the equivalent data sources.
	Candidates []string
	// Shard is non-nil when the fragment covers one shard of a sharded
	// nickname; fragments sharing Shard.Of concatenate at the integrator.
	Shard *ShardRef
}

// Decomposition is the result of splitting a query.
type Decomposition struct {
	// Stmt is the original statement.
	Stmt *sqlparser.SelectStmt
	// Fragments lists the fragments in FROM order.
	Fragments []*FragmentSpec
	// Cross are the conjuncts not pushed into any fragment (cross-source
	// join predicates); the integrator applies them while merging.
	Cross []sqlparser.Expr
	// SingleFragment is true when the entire statement was pushed to one
	// source group, in which case Fragments[0].Stmt == Stmt (or a shard
	// rewrite of it) and the integrator's merge is a passthrough.
	SingleFragment bool
	// Sharded is non-nil when the statement covers exactly one sharded
	// table; it records the pruning outcome and any pushed partial
	// aggregation. See shard.go.
	Sharded *ShardPlan
}

// Decompose splits stmt into co-located fragments using the catalog.
// Tables are grouped greedily in FROM order: a table joins the current group
// while at least one server hosts every table of the group. Sharded
// nicknames always form singleton groups (their rows are disjoint across
// servers, so no server can evaluate a join against them whole) and expand
// into per-shard fragments.
func Decompose(stmt *sqlparser.SelectStmt, cat *catalog.Catalog) (*Decomposition, error) {
	d, err := decompose(stmt, cat)
	if err != nil {
		return nil, err
	}
	for _, f := range d.Fragments {
		f.SQL = f.Stmt.String()
		f.Sig = sqlparser.CanonicalizeSQL(f.SQL)
	}
	return d, nil
}

// DecomposeWith is Decompose; the options carry nothing.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func DecomposeWith(stmt *sqlparser.SelectStmt, cat *catalog.Catalog, _ DecomposeOpts) (*Decomposition, error) {
	return Decompose(stmt, cat)
}

func decompose(stmt *sqlparser.SelectStmt, cat *catalog.Catalog) (*Decomposition, error) {
	tables := stmt.Tables()

	type group struct {
		tables  []sqlparser.TableRef
		servers map[string]bool
		// nick is non-nil when the group is a single sharded table; such
		// groups are sealed (no other table may join them).
		nick *catalog.Nickname
	}
	var groups []*group
	for _, tr := range tables {
		nick, err := cat.Lookup(tr.Name)
		if err != nil {
			return nil, err
		}
		hosts := map[string]bool{}
		for _, p := range nick.Placements {
			hosts[p.ServerID] = true
		}
		if nick.Sharded() {
			groups = append(groups, &group{tables: []sqlparser.TableRef{tr}, servers: hosts, nick: nick})
			continue
		}
		placed := false
		if len(groups) > 0 {
			g := groups[len(groups)-1]
			if g.nick == nil {
				inter := map[string]bool{}
				for s := range g.servers {
					if hosts[s] {
						inter[s] = true
					}
				}
				if len(inter) > 0 {
					g.tables = append(g.tables, tr)
					g.servers = inter
					placed = true
				}
			}
		}
		if !placed {
			groups = append(groups, &group{tables: []sqlparser.TableRef{tr}, servers: hosts})
		}
	}

	d := &Decomposition{Stmt: stmt}

	// Single group: push the whole statement (scatter-gathering when the
	// group is a sharded table).
	if len(groups) == 1 {
		g := groups[0]
		schema, err := groupSchema(cat, g.tables)
		if err != nil {
			return nil, err
		}
		if g.nick != nil {
			return decomposeShardedSingle(stmt, g.nick, g.tables[0], schema)
		}
		d.SingleFragment = true
		d.Fragments = []*FragmentSpec{{
			ID:         "QF1",
			Tables:     g.tables,
			Stmt:       stmt,
			Candidates: sortedKeys(g.servers),
		}}
		return d, nil
	}

	// Multi group: distribute conjuncts.
	var pool []sqlparser.Expr
	pool = append(pool, sqlparser.SplitConjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		pool = append(pool, sqlparser.SplitConjuncts(j.On)...)
	}
	pool = sqlparser.DropTrueLiterals(pool)

	schemas := make([]*sqltypes.Schema, len(groups))
	for i, g := range groups {
		schema, err := groupSchema(cat, g.tables)
		if err != nil {
			return nil, err
		}
		schemas[i] = schema
	}
	pushed := make([][]sqlparser.Expr, len(groups))
	for _, c := range pool {
		placed := false
		for i := range groups {
			if sqlparser.ExprResolves(c, schemas[i]) {
				pushed[i] = append(pushed[i], c)
				placed = true
				break
			}
		}
		if !placed {
			d.Cross = append(d.Cross, c)
		}
	}

	star, refs := readOutside(stmt, d.Cross)
	for i, g := range groups {
		ship := shipList(schemas[i], star, refs)
		if g.nick != nil {
			d.Fragments = append(d.Fragments,
				shardGatherFragments(g.nick, g.tables[0], fmt.Sprintf("QF%d", i+1), ship, pushed[i])...)
			continue
		}
		fragStmt := &sqlparser.SelectStmt{
			Select: ship,
			From:   g.tables[0],
			Limit:  -1,
			Where:  sqlparser.JoinConjuncts(pushed[i]),
		}
		for _, tr := range g.tables[1:] {
			fragStmt.Joins = append(fragStmt.Joins, sqlparser.JoinClause{
				Table: tr,
				On:    &sqlparser.Literal{Val: sqltypes.NewBool(true)},
			})
		}
		d.Fragments = append(d.Fragments, &FragmentSpec{
			ID:         fmt.Sprintf("QF%d", i+1),
			Tables:     g.tables,
			Stmt:       fragStmt,
			Candidates: sortedKeys(g.servers),
		})
	}
	return d, nil
}

// readOutside collects the column references evaluated outside the fragments,
// at the integrator: the statement's select list, GROUP BY, HAVING and ORDER
// BY, and the cross-source conjuncts. star reports a * in the select list.
// Conjuncts pushed into a fragment run remotely and need nothing shipped.
func readOutside(stmt *sqlparser.SelectStmt, cross []sqlparser.Expr) (star bool, refs []*sqlparser.ColumnRef) {
	for _, item := range stmt.Select {
		if item.Star {
			star = true
			continue
		}
		refs = sqlparser.CollectColumnRefs(item.Expr, refs)
	}
	for _, e := range stmt.GroupBy {
		refs = sqlparser.CollectColumnRefs(e, refs)
	}
	if stmt.Having != nil {
		refs = sqlparser.CollectColumnRefs(stmt.Having, refs)
	}
	for _, o := range stmt.OrderBy {
		refs = sqlparser.CollectColumnRefs(o.Expr, refs)
	}
	for _, e := range cross {
		refs = sqlparser.CollectColumnRefs(e, refs)
	}
	return star, refs
}

// shipList is the select list of a fragment over a source group with the
// qualified layout schema: the group's columns some outside reference could
// resolve to, in schema order and qualified, so a column is shipped only when
// the merge or the result reads it. A reference matches by name, and by
// qualifier when it has one; matching every candidate (an ORDER BY name that
// is also a select alias, an ambiguous name) leaves resolution at the
// integrator exactly as it was over whole rows. The list is * when the
// statement selects * or every column is read, and the group's first column
// when none is: the merge still needs one row per row of the group (COUNT(*)
// over a cross product).
func shipList(schema *sqltypes.Schema, star bool, refs []*sqlparser.ColumnRef) []sqlparser.SelectItem {
	var items []sqlparser.SelectItem
	for _, c := range schema.Columns {
		for _, r := range refs {
			if strings.EqualFold(r.Name, c.Name) && (r.Table == "" || strings.EqualFold(r.Table, c.Table)) {
				items = append(items, sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Table: c.Table, Name: c.Name}})
				break
			}
		}
	}
	switch {
	case star || len(items) == len(schema.Columns):
		return []sqlparser.SelectItem{{Star: true}}
	case len(items) == 0:
		c := schema.Columns[0]
		return []sqlparser.SelectItem{{Expr: &sqlparser.ColumnRef{Table: c.Table, Name: c.Name}}}
	}
	return items
}

// groupSchema concatenates the alias-qualified schemas of the group tables.
func groupSchema(cat *catalog.Catalog, tables []sqlparser.TableRef) (*sqltypes.Schema, error) {
	var out *sqltypes.Schema
	for _, tr := range tables {
		nick, err := cat.Lookup(tr.Name)
		if err != nil {
			return nil, err
		}
		q := nick.Schema.WithQualifier(tr.EffectiveName())
		if out == nil {
			out = q
		} else {
			out = out.Concat(q)
		}
	}
	return out, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort; tiny sets
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
