package storage

import (
	"fmt"
	"math/rand"

	"repro/internal/sqltypes"
)

// ColumnGen describes how to generate one column of synthetic data.
type ColumnGen struct {
	Name string
	Type sqltypes.Kind
	// Gen produces the value for row i.
	Gen func(r *rand.Rand, i int) sqltypes.Value
}

// TableGen describes a synthetic table.
type TableGen struct {
	Name    string
	Rows    int
	Columns []ColumnGen
	// Indexes lists (indexName, column, kind) triples to build after load.
	Indexes []IndexGen
}

// IndexGen describes one index to create on a generated table.
type IndexGen struct {
	Name   string
	Column string
	Kind   IndexKind
}

// Generate materializes the table with a deterministic per-table RNG stream
// derived from seed, so replicas generated with the same seed are identical
// byte-for-byte across servers. Cells are drawn row by row and go straight
// into the table's columns.
func (g TableGen) Generate(seed int64) (*Table, error) {
	cols := make([]sqltypes.Column, len(g.Columns))
	for i, c := range g.Columns {
		cols[i] = sqltypes.Column{Table: g.Name, Name: c.Name, Type: c.Type}
	}
	schema := sqltypes.NewSchema(cols...)
	t := NewTable(g.Name, schema)
	r := rand.New(rand.NewSource(seed ^ int64(hashString(g.Name))))
	row := make(sqltypes.Row, len(g.Columns))
	for i := 0; i < g.Rows; i++ {
		for j, c := range g.Columns {
			row[j] = c.Gen(r, i)
		}
		t.put(row, g.Rows)
	}
	t.version++ // generating is one write, as one Append was
	for _, ig := range g.Indexes {
		if _, err := t.CreateIndex(ig.Name, ig.Column, ig.Kind); err != nil {
			return nil, fmt.Errorf("storage: generating %s: %w", g.Name, err)
		}
	}
	return t, nil
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Common generators.

// SeqInt generates 0,1,2,... — a primary key.
func SeqInt() func(*rand.Rand, int) sqltypes.Value {
	return func(_ *rand.Rand, i int) sqltypes.Value { return sqltypes.NewInt(int64(i)) }
}

// UniformInt generates uniform integers in [0, n).
func UniformInt(n int64) func(*rand.Rand, int) sqltypes.Value {
	return func(r *rand.Rand, _ int) sqltypes.Value { return sqltypes.NewInt(r.Int63n(n)) }
}

// UniformFloat generates uniform floats in [lo, hi).
func UniformFloat(lo, hi float64) func(*rand.Rand, int) sqltypes.Value {
	return func(r *rand.Rand, _ int) sqltypes.Value {
		return sqltypes.NewFloat(lo + r.Float64()*(hi-lo))
	}
}

// Categorical picks uniformly from the given strings.
func Categorical(options ...string) func(*rand.Rand, int) sqltypes.Value {
	return func(r *rand.Rand, _ int) sqltypes.Value {
		return sqltypes.NewString(options[r.Intn(len(options))])
	}
}

// PaddedString generates deterministic strings like "name-000042" to give
// rows realistic width.
func PaddedString(prefix string) func(*rand.Rand, int) sqltypes.Value {
	return func(_ *rand.Rand, i int) sqltypes.Value {
		return sqltypes.NewString(fmt.Sprintf("%s-%06d", prefix, i))
	}
}

// SampleSchema returns the generator set for the experiment database,
// mirroring the paper's setup: large tables with ~100000 tuples and small
// tables with ~1000 tuples, replicated across servers (§5). The schema is a
// simplified order-entry schema in the spirit of the DB2 SAMPLE database.
//
//   - ORDERS   (large): o_id PK, o_custkey FK, o_amount, o_priority, o_qty
//   - LINEITEM (large): l_id PK, l_orderkey FK→ORDERS, l_qty, l_price, l_tag
//   - CUSTOMER (small): c_id PK, c_segment, c_discount
//   - PARTS    (small): p_id PK, p_type, p_weight
//
// Sizes can be scaled down for fast tests via the scale divisor (1 = paper
// scale).
func SampleSchema(scale int) []TableGen {
	if scale < 1 {
		scale = 1
	}
	large := 100000 / scale
	small := 1000 / scale
	if large < 10 {
		large = 10
	}
	if small < 5 {
		small = 5
	}
	return []TableGen{
		{
			Name: "orders",
			Rows: large,
			Columns: []ColumnGen{
				{Name: "o_id", Type: sqltypes.KindInt, Gen: SeqInt()},
				{Name: "o_custkey", Type: sqltypes.KindInt, Gen: UniformInt(int64(small))},
				{Name: "o_amount", Type: sqltypes.KindFloat, Gen: UniformFloat(0, 10000)},
				{Name: "o_priority", Type: sqltypes.KindInt, Gen: UniformInt(5)},
				{Name: "o_qty", Type: sqltypes.KindInt, Gen: UniformInt(100)},
			},
			Indexes: []IndexGen{
				{Name: "orders_pk", Column: "o_id", Kind: IndexSorted},
				{Name: "orders_cust", Column: "o_custkey", Kind: IndexHash},
			},
		},
		{
			Name: "lineitem",
			Rows: large,
			Columns: []ColumnGen{
				{Name: "l_id", Type: sqltypes.KindInt, Gen: SeqInt()},
				{Name: "l_orderkey", Type: sqltypes.KindInt, Gen: UniformInt(int64(large))},
				{Name: "l_qty", Type: sqltypes.KindInt, Gen: UniformInt(50)},
				{Name: "l_price", Type: sqltypes.KindFloat, Gen: UniformFloat(1, 1000)},
				{Name: "l_tag", Type: sqltypes.KindString, Gen: Categorical("std", "exp", "bulk", "promo")},
			},
			Indexes: []IndexGen{
				{Name: "lineitem_pk", Column: "l_id", Kind: IndexSorted},
				{Name: "lineitem_ord", Column: "l_orderkey", Kind: IndexSorted},
			},
		},
		{
			Name: "customer",
			Rows: small,
			Columns: []ColumnGen{
				{Name: "c_id", Type: sqltypes.KindInt, Gen: SeqInt()},
				{Name: "c_segment", Type: sqltypes.KindString, Gen: Categorical("auto", "house", "machine", "food")},
				{Name: "c_discount", Type: sqltypes.KindFloat, Gen: UniformFloat(0, 0.2)},
			},
			Indexes: []IndexGen{{Name: "customer_pk", Column: "c_id", Kind: IndexSorted}},
		},
		{
			Name: "parts",
			Rows: small,
			Columns: []ColumnGen{
				{Name: "p_id", Type: sqltypes.KindInt, Gen: SeqInt()},
				{Name: "p_type", Type: sqltypes.KindString, Gen: Categorical("bolt", "nut", "gear", "cam", "rod")},
				{Name: "p_weight", Type: sqltypes.KindFloat, Gen: UniformFloat(0.1, 50)},
			},
			Indexes: []IndexGen{{Name: "parts_pk", Column: "p_id", Kind: IndexSorted}},
		},
	}
}
