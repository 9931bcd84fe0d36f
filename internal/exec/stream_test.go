package exec

import (
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

func TestBlockingStageNames(t *testing.T) {
	base := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Table: "o", Name: "o_id", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "o", Name: "o_custkey", Type: sqltypes.KindInt},
	))
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{"SELECT o.o_id FROM orders AS o WHERE o.o_id < 5 LIMIT 3", ""},
		{"SELECT o.o_id FROM orders AS o ORDER BY o.o_id DESC", "sort"},
		{"SELECT COUNT(*) FROM orders AS o", "aggregate"},
		{"SELECT DISTINCT o.o_custkey FROM orders AS o", "distinct"},
		{"SELECT DISTINCT o.o_custkey FROM orders AS o ORDER BY o.o_custkey", "distinct"},
	} {
		op, err := BuildTop(sqlparser.MustParse(tc.sql), &Values{Rel: base})
		if err != nil {
			t.Fatal(err)
		}
		if got := BlockingStage(op); got != tc.want {
			t.Fatalf("%s: blocking stage %q want %q", tc.sql, got, tc.want)
		}
	}
}
