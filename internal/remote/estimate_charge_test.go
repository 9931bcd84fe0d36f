package remote_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiment"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/workload"
)

// TestEstimateWithTrueCardinalitiesIsTheCharge holds the estimator to the
// kernels' cost formulas: fed the counts executing a plan observed at every
// node, it prices the plan at exactly what the row kernel and the columnar
// kernel charge. Every candidate plan of the plan-set oracle's statements is
// checked on a paper-profile server and on a server whose lineitem keys are
// NULL in about 15% of rows, beside two sorts over values. What is left of
// calm-server estimate error is then cardinality (and width) error.
//
// The match is bit for bit but in one shape, where the two sums group the
// same charges differently (see regrouped): there the estimate may differ by
// at most maxRegroupedULPs.
func TestEstimateWithTrueCardinalitiesIsTheCharge(t *testing.T) {
	var stmts []*sqlparser.SelectStmt
	seen := map[string]bool{}
	add := func(sql string) {
		if !seen[sql] {
			seen[sql] = true
			stmts = append(stmts, sqlparser.MustParse(sql))
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		gen := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			add(experiment.RandomQuery(gen))
		}
	}
	for _, it := range workload.UniformMix(10) {
		add(it.SQL)
	}
	for _, sql := range edgeStatements {
		add(sql)
	}
	nulls, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 1, Scale: oracleScale, Seed: 7, NullKeyFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}

	plans, regroupedPlans := 0, 0
	for _, s := range []*remote.Server{profileServers(t, 50)[0], nulls.Servers["S1"]} {
		for _, stmt := range stmts {
			candidates, _, err := s.Enumerate(stmt)
			if err != nil {
				continue // the oracle's error statements
			}
			for _, p := range candidates {
				label := fmt.Sprintf("%s: %s\n%s", s.ID(), stmt, p.Signature)
				checkCharge(t, label, s, stmt, p.Root)
				plans++
				if regrouped(p.Root) {
					regroupedPlans++
				}
			}
		}
	}

	// A sort of n rows charges n·⌈log2 n⌉: at n = 1 000 a fractional log2
	// would price 9 965.8 ops against the kernels' 10 000, and QCC would learn
	// the gap as load.
	schema := sqltypes.NewSchema(sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt})
	keys := sqlparser.MustParse("SELECT t.k FROM t ORDER BY t.k DESC").OrderBy
	for _, n := range []int{3, 1000} {
		rel := sqltypes.NewRelation(schema)
		for i := 0; i < n; i++ {
			rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(int64(i * 7 % n))})
		}
		checkCharge(t, fmt.Sprintf("sort of %d values", n), nil, nil, &exec.Sort{Input: &exec.Values{Rel: rel}, Keys: keys})
	}
	if plans < 1000 {
		t.Errorf("only %d plans checked", plans)
	}
	t.Logf("%d plans checked, %d of the regrouped shape", plans, regroupedPlans)
}

// maxRegroupedULPs bounds how far apart, in units in the last place, the
// estimate and the charge of a regrouped plan may round. The corpus reaches
// 1.
const maxRegroupedULPs = 2

// regrouped reports whether root has the shape where the estimate and the
// charge may round apart. The kernels add every charge to one running total
// in execution order; the estimator sums a join's right input on its own and
// then adds that sum. Whole-number charges sum exactly in any grouping, so
// the two agree unless a join's right input makes more than one charge and
// the plan holds an index descent, the only fractional charge.
func regrouped(root exec.Operator) bool {
	descent, multi := false, false
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		switch x := op.(type) {
		case *exec.IndexScan, *exec.IndexNLJoin:
			descent = true
		case *exec.HashJoin:
			multi = multi || nodes(x.Probe) > 1
		case *exec.NestedLoopJoin:
			multi = multi || nodes(x.Inner) > 1
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(root)
	return descent && multi
}

// nodes counts the operators of a tree.
func nodes(op exec.Operator) int {
	n := 1
	for _, c := range op.Children() {
		n += nodes(c)
	}
	return n
}

// checkCharge estimates root with the counts its execution observed and
// compares the estimate's resources with both kernels' charge.
func checkCharge(t *testing.T, label string, s *remote.Server, stmt *sqlparser.SelectStmt, root exec.Operator) {
	t.Helper()
	observed := map[exec.Operator]remote.Counted{}
	if err := observe(root, observed); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	est, err := remote.EstimateCounted(s, stmt, root, observed)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	row, col := &exec.Context{}, &exec.Context{}
	if _, err := root.Execute(row); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := exec.ExecuteVectorized(root, col); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	bound := uint64(0)
	if regrouped(root) {
		bound = maxRegroupedULPs
	}
	for kernel, res := range map[string]exec.Resources{"row": row.Res, "columnar": col.Res} {
		if d := ulps(est, res); d > bound {
			t.Errorf("%s\nestimated %+v, the %s kernel charged %+v: %d ulps apart, at most %d allowed",
				label, est, kernel, res, d, bound)
		}
	}
}

// observe executes every node of the tree under op on the row kernel and
// records its output rows; for an index join also its non-NULL probes and
// its matches before the residual.
func observe(op exec.Operator, into map[exec.Operator]remote.Counted) error {
	for _, c := range op.Children() {
		if err := observe(c, into); err != nil {
			return err
		}
	}
	out, err := op.Execute(&exec.Context{})
	if err != nil {
		return err
	}
	c := remote.Counted{Card: float64(len(out.Rows))}
	if j, ok := op.(*exec.IndexNLJoin); ok {
		outer, err := j.Outer.Execute(&exec.Context{})
		if err != nil {
			return err
		}
		for _, row := range outer.Rows {
			k, err := sqlparser.Eval(j.OuterKey, row, outer.Schema)
			if err != nil {
				return err
			}
			if !k.IsNull() {
				c.Probes++
			}
		}
		unfiltered := *j
		unfiltered.Residual = nil
		matches, err := unfiltered.Execute(&exec.Context{})
		if err != nil {
			return err
		}
		c.Matches = float64(len(matches.Rows))
	}
	into[op] = c
	return nil
}

// ulps is the largest distance, in units in the last place, between a and b
// over the three charged fields; the fields are never negative.
func ulps(a, b exec.Resources) uint64 {
	d := uint64(0)
	for _, f := range [][2]float64{{a.CPUOps, b.CPUOps}, {a.IOPages, b.IOPages}, {a.CachedPages, b.CachedPages}} {
		x, y := math.Float64bits(f[0]), math.Float64bits(f[1])
		d = max(d, max(x, y)-min(x, y))
	}
	return d
}
