package integrator_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/integrator"
	"repro/internal/optimizer"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/sqltypes"
)

// findHashJoin returns the first hash join in op's tree.
func findHashJoin(op exec.Operator) *exec.HashJoin {
	if j, ok := op.(*exec.HashJoin); ok {
		return j
	}
	for _, c := range op.Children() {
		if j := findHashJoin(c); j != nil {
			return j
		}
	}
	return nil
}

// TestMergeBuildsTheInputEstimatedToFinishFirst: the merge's hash join hashes
// the sharded lineitem, whose slowest shard QCC estimates to finish before
// orders, and keeps the left build on a tie, when any one shard is estimated
// later than orders, or when orders is earlier. Whichever side is built,
// SELECT * returns orders' columns then lineitem's, each row a match.
func TestMergeBuildsTheInputEstimatedToFinishFirst(t *testing.T) {
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.II.Query(`SELECT * FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount < 500`)
	if err != nil {
		t.Fatal(err)
	}
	gp := res.Plan
	if len(gp.Fragments) != 5 || gp.Fragments[0].Spec.Shard != nil {
		t.Fatalf("want orders then four lineitem shards, got %d fragments", len(gp.Fragments))
	}
	orders, lineitem := gp.Fragments[0].Plan.Root.Schema(), gp.Fragments[1].Plan.Root.Schema()

	// buildRight plans the merge with the given estimated finish times (orders
	// first, then the shards) and reports which side its join hashes.
	buildRight := func(est ...float64) bool {
		t.Helper()
		cp := *gp
		cp.Fragments = append([]optimizer.FragmentChoice(nil), gp.Fragments...)
		for i := range cp.Fragments {
			plan := *cp.Fragments[i].Plan
			if est != nil {
				plan.Est = remote.CostEstimate{TotalMS: est[i]}
			}
			cp.Fragments[i].Plan = &plan
		}
		leaves := []exec.Operator{
			&exec.Values{Rel: sqltypes.NewRelation(orders)},
			&exec.Values{Rel: sqltypes.NewRelation(lineitem)},
		}
		top, err := integrator.MergePlan(&cp, leaves)
		if err != nil {
			t.Fatal(err)
		}
		j := findHashJoin(top)
		if j == nil {
			t.Fatalf("no hash join in the merge:\n%s", exec.ExplainTree(top))
		}
		return j.BuildRight
	}
	if !buildRight() {
		t.Fatal("the merge hashes orders, though QCC estimates every lineitem shard to finish first")
	}
	for _, c := range []struct {
		name string
		est  []float64
	}{
		{"a tie", []float64{10, 10, 10, 10, 10}},
		{"one shard after orders", []float64{10, 5, 5, 5, 20}},
		{"orders first", []float64{1, 5, 5, 5, 5}},
	} {
		if buildRight(c.est...) {
			t.Errorf("%s: the merge hashes lineitem; the left build must stay", c.name)
		}
	}
	if !buildRight(10, 5, 5, 9.99, 5) {
		t.Error("every shard before orders: the merge must hash lineitem")
	}

	want := orders.Concat(lineitem)
	if res.Rel.Schema.String() != want.String() {
		t.Fatalf("SELECT * schema %s, want orders' columns then lineitem's: %s", res.Rel.Schema, want)
	}
	if len(res.Rel.Rows) == 0 {
		t.Fatal("the join returned no rows")
	}
	oID, _ := want.ColumnIndex("o", "o_id")
	lKey, _ := want.ColumnIndex("l", "l_orderkey")
	for i, row := range res.Rel.Rows {
		if sqltypes.Compare(row[oID], row[lKey]) != 0 {
			t.Fatalf("row %d pairs o_id %v with l_orderkey %v", i, row[oID], row[lKey])
		}
	}
}
