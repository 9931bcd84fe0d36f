package remote

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// The estimator prices a Sort at exactly the CPU ops both sort kernels
// charge, n·⌈log2 n⌉: at n = 1 000 a fractional log2 would price 9 965.8 ops
// against the kernels' 10 000, and QCC would learn the gap as load.
func TestSortEstimateIsWhatTheKernelsCharge(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt})
	keys := sqlparser.MustParse("SELECT t.k FROM t ORDER BY t.k DESC").OrderBy
	for _, n := range []int{3, 1000} {
		rel := sqltypes.NewRelation(schema)
		for i := 0; i < n; i++ {
			rel.Rows = append(rel.Rows, sqltypes.Row{sqltypes.NewInt(int64(i * 7 % n))})
		}
		sort := &exec.Sort{Input: &exec.Values{Rel: rel}, Keys: keys}
		est, err := (&estimator{}).estimate(sort)
		if err != nil {
			t.Fatal(err)
		}
		row := &exec.Context{}
		if _, err := sort.Execute(row); err != nil {
			t.Fatal(err)
		}
		col := &exec.Context{}
		if _, err := exec.ExecuteBatches(sort, col); err != nil {
			t.Fatal(err)
		}
		if est.res.CPUOps != row.Res.CPUOps || est.res.CPUOps != col.Res.CPUOps {
			t.Errorf("n=%d: estimated %g CPU ops, the row kernel charged %g and the columnar kernel %g",
				n, est.res.CPUOps, row.Res.CPUOps, col.Res.CPUOps)
		}
	}
}
