package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// RandomQuery generates a random but always-valid federated SELECT over the
// sample schema. The generator covers single-table scans, two- and
// three-way joins, range/equality/IN/BETWEEN predicates, grouped and scalar
// aggregation, HAVING, ORDER BY and LIMIT — the full surface the engine
// supports. It is used by differential tests that compare federated
// execution against direct single-server execution.
func RandomQuery(r *rand.Rand) string {
	switch r.Intn(6) {
	case 0:
		return randomSingleTable(r)
	case 1:
		return randomTwoWayJoin(r)
	case 2:
		return randomGroupBy(r)
	case 3:
		return randomThreeWay(r)
	case 4:
		return randomScalarFuncs(r)
	default:
		return randomScalarAgg(r)
	}
}

// ShardPredicates mixes handpicked WHERE predicates over the sharded
// lineitem (every shard-pruning rule, the unsatisfiable conjunction, non-key
// predicates) with seeded random predicates on and off the shard key
// l_orderkey. Pruning tests check each against the single-site answer.
func ShardPredicates() []string {
	preds := []string{
		"l_orderkey = 37",
		"l_orderkey = -1",
		"l_orderkey IN (5, 250, 999)",
		"l_orderkey BETWEEN 100 AND 300",
		"l_orderkey < 200",
		"l_orderkey >= 800",
		"l_orderkey IS NULL",
		"l_orderkey = 37 AND l_qty > 2",
		"l_orderkey = 5 AND l_orderkey = 900",
		"l_qty < 25",
		"250 <= l_orderkey",
	}
	r := rand.New(rand.NewSource(7))
	ops := []string{"=", "<", "<=", ">", ">="}
	cols := []string{"l_orderkey", "l_orderkey", "l_orderkey", "l_qty"}
	for i := 0; i < 20; i++ {
		col := cols[r.Intn(len(cols))]
		switch r.Intn(4) {
		case 0:
			preds = append(preds, fmt.Sprintf("%s %s %d", col, ops[r.Intn(len(ops))], r.Intn(1100)-50))
		case 1:
			lo := r.Intn(1000)
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+r.Intn(300)))
		case 2:
			preds = append(preds, fmt.Sprintf("%s IN (%d, %d, %d)", col, r.Intn(1000), r.Intn(1000), r.Intn(1000)))
		default:
			preds = append(preds, fmt.Sprintf("%s %s %d AND l_price > %d", col, ops[r.Intn(len(ops))], r.Intn(1000), r.Intn(900)))
		}
	}
	return preds
}

func randomScalarFuncs(r *rand.Rand) string {
	return fmt.Sprintf(
		"SELECT o.o_id, ABS(o.o_amount - 5000) AS dist, MOD(o.o_id, %d) AS bucket FROM orders AS o WHERE ROUND(o.o_amount, -3) = %d000 ORDER BY o.o_id LIMIT 25",
		2+r.Intn(5), 1+r.Intn(9))
}

func randomSingleTable(r *rand.Rand) string {
	pred := randomOrdersPred(r)
	cols := []string{"o.o_id", "o.o_custkey", "o.o_amount"}
	n := 1 + r.Intn(len(cols))
	sel := strings.Join(cols[:n], ", ")
	q := fmt.Sprintf("SELECT %s FROM orders AS o WHERE %s ORDER BY o.o_id", sel, pred)
	if r.Intn(2) == 0 {
		q += fmt.Sprintf(" LIMIT %d", 1+r.Intn(50))
	}
	return q
}

func randomTwoWayJoin(r *rand.Rand) string {
	return fmt.Sprintf(
		"SELECT COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE %s",
		randomOrdersPred(r))
}

func randomGroupBy(r *rand.Rand) string {
	q := fmt.Sprintf(
		"SELECT o.o_priority, COUNT(*) AS n, SUM(o.o_amount) AS total FROM orders AS o WHERE %s GROUP BY o.o_priority",
		randomOrdersPred(r))
	if r.Intn(2) == 0 {
		q += " HAVING COUNT(*) > " + fmt.Sprint(r.Intn(3))
	}
	return q + " ORDER BY o.o_priority"
}

func randomThreeWay(r *rand.Rand) string {
	return fmt.Sprintf(
		`SELECT COUNT(*), MIN(l.l_price), MAX(l.l_price) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id JOIN lineitem AS l ON l.l_orderkey = o.o_id WHERE c.c_id < %d`,
		1+r.Intn(8))
}

func randomScalarAgg(r *rand.Rand) string {
	return fmt.Sprintf(
		"SELECT COUNT(*), AVG(o.o_amount), MIN(o.o_qty), MAX(o.o_qty) FROM orders AS o WHERE %s",
		randomOrdersPred(r))
}

func randomOrdersPred(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("o.o_amount > %d", r.Intn(10000))
	case 1:
		return fmt.Sprintf("o.o_amount BETWEEN %d AND %d", r.Intn(5000), 5000+r.Intn(5000))
	case 2:
		return fmt.Sprintf("o.o_priority IN (%d, %d)", r.Intn(5), r.Intn(5))
	case 3:
		return fmt.Sprintf("o.o_custkey = %d", r.Intn(10))
	default:
		return fmt.Sprintf("o.o_amount > %d AND o.o_qty < %d", r.Intn(8000), 20+r.Intn(80))
	}
}

// GroundTruth executes the statement directly against one server's tables
// with the reference (unoptimized) plan builder — no federation, no network,
// no planner choices. It is the oracle for differential tests.
func GroundTruth(sc *scenario.Scenario, serverID, sql string) (*sqltypes.Relation, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	rel, err := groundTruth(stmt, sc.Servers[serverID].Table)
	if err != nil {
		return nil, fmt.Errorf("difftest: %s: %w", serverID, err)
	}
	return rel, nil
}

// groundTruth runs the reference plan over the tables table names.
func groundTruth(stmt *sqlparser.SelectStmt, table func(name string) *storage.Table) (*sqltypes.Relation, error) {
	leaves := map[string]exec.Operator{}
	for _, tr := range stmt.Tables() {
		tab := table(tr.Name)
		if tab == nil {
			return nil, fmt.Errorf("no table %s", tr.Name)
		}
		leaves[tr.EffectiveName()] = &exec.SeqScan{Table: tab, As: tr.EffectiveName()}
	}
	op, err := exec.BuildPlan(stmt, leaves)
	if err != nil {
		return nil, err
	}
	return op.Execute(&exec.Context{})
}

// RelationsEquivalent compares two relations as multisets of rows (order
// matters only when ordered is true), with float tolerance. It returns a
// description of the first difference, or "" when equivalent.
func RelationsEquivalent(a, b *sqltypes.Relation, ordered bool) string {
	if a.Cardinality() != b.Cardinality() {
		return fmt.Sprintf("cardinality %d vs %d", a.Cardinality(), b.Cardinality())
	}
	if a.Schema.Len() != b.Schema.Len() {
		return fmt.Sprintf("arity %d vs %d", a.Schema.Len(), b.Schema.Len())
	}
	ra := renderRows(a)
	rb := renderRows(b)
	if !ordered {
		sort.Strings(ra)
		sort.Strings(rb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Sprintf("row %d: %s vs %s", i, ra[i], rb[i])
		}
	}
	return ""
}

// renderRows canonicalizes rows for comparison, rounding floats so that
// summation-order differences do not register.
func renderRows(rel *sqltypes.Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.Kind() == sqltypes.KindFloat {
				parts[j] = fmt.Sprintf("%.4f", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}
