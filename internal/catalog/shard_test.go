package catalog

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

func shardSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Name: "v", Type: sqltypes.KindFloat},
	)
}

func mkShards(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		name := ShardTableName("t", i)
		out[i] = Shard{Index: i, Placements: []Placement{{ServerID: "S1", RemoteTable: name}}}
	}
	return out
}

func TestShardForHash(t *testing.T) {
	spec := &ShardSpec{Column: "k"}
	// n <= 1 always maps to shard 0.
	if got := spec.ShardFor(sqltypes.NewInt(99), 1); got != 0 {
		t.Fatalf("single shard: got %d", got)
	}
	for _, n := range []int{2, 3, 8} {
		for _, v := range []sqltypes.Value{
			sqltypes.NewInt(0), sqltypes.NewInt(-7), sqltypes.NewInt(1 << 40),
			sqltypes.NewString("abc"), sqltypes.Null,
		} {
			got := spec.ShardFor(v, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardFor(%v, %d) = %d out of range", v, n, got)
			}
			want := int(v.Hash() % uint64(n))
			if got != want {
				t.Fatalf("ShardFor(%v, %d) = %d, want Hash%%n = %d", v, n, got, want)
			}
		}
		// The engine guarantees Hash(a)==Hash(b) when Compare(a,b)==0, so an
		// integral float must land on its int twin's shard.
		if spec.ShardFor(sqltypes.NewFloat(42), n) != spec.ShardFor(sqltypes.NewInt(42), n) {
			t.Fatalf("integral float and int disagree at n=%d", n)
		}
	}
}

func TestShardForRange(t *testing.T) {
	spec := &ShardSpec{
		Column: "k",
		Method: ShardRange,
		Bounds: []sqltypes.Value{sqltypes.NewInt(10), sqltypes.NewInt(20)},
	}
	cases := []struct {
		v    sqltypes.Value
		want int
	}{
		{sqltypes.Null, 0},          // NULL sorts first
		{sqltypes.NewInt(-5), 0},    // unbounded below
		{sqltypes.NewInt(9), 0},     // below first bound
		{sqltypes.NewInt(10), 1},    // bound belongs to the upper shard
		{sqltypes.NewInt(19), 1},    //
		{sqltypes.NewInt(20), 2},    //
		{sqltypes.NewInt(1000), 2},  // unbounded above
		{sqltypes.NewFloat(9.5), 0}, // numeric comparison across kinds
	}
	for _, c := range cases {
		if got := spec.ShardFor(c.v, 3); got != c.want {
			t.Errorf("ShardFor(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRegisterShardedSingleShardDegrades(t *testing.T) {
	c := New()
	spec := &ShardSpec{Column: "k"}
	if err := c.RegisterSharded("t", shardSchema(), spec, []Shard{
		{Index: 0, Placements: []Placement{{ServerID: "S1", RemoteTable: "t"}}},
	}); err != nil {
		t.Fatal(err)
	}
	n, err := c.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if n.Sharding != nil || len(n.Shards) != 0 || n.Sharded() {
		t.Fatalf("single-shard registration must be a plain nickname: %+v", n)
	}
	if len(n.Placements) != 1 || n.Placements[0].ServerID != "S1" {
		t.Fatalf("placements: %+v", n.Placements)
	}
}

func TestRegisterShardedMultiShard(t *testing.T) {
	c := New()
	spec := &ShardSpec{Column: "k"}
	shards := []Shard{
		{Index: 0, Placements: []Placement{{ServerID: "S1", RemoteTable: ShardTableName("t", 0)}}},
		{Index: 1, Placements: []Placement{{ServerID: "S2", RemoteTable: ShardTableName("t", 1)}}},
	}
	if err := c.RegisterSharded("t", shardSchema(), spec, shards); err != nil {
		t.Fatal(err)
	}
	n, err := c.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if !n.Sharded() || len(n.Shards) != 2 {
		t.Fatalf("expected 2-way sharded nickname: %+v", n)
	}
	// Placements is the union of shard hosts.
	if got := n.Servers(); len(got) != 2 {
		t.Fatalf("placement union: %v", got)
	}
}

func TestRegisterShardedValidation(t *testing.T) {
	schema := shardSchema()
	cases := []struct {
		name   string
		spec   *ShardSpec
		shards []Shard
		want   string
	}{
		{"no spec", nil, mkShards(2), "shard spec"},
		{"no shards", &ShardSpec{Column: "k"}, nil, "at least one shard"},
		{"bad key", &ShardSpec{Column: "zz"}, mkShards(2), "not a column"},
		{"gap", &ShardSpec{Column: "k"}, []Shard{
			{Index: 0, Placements: []Placement{{ServerID: "S1", RemoteTable: "a"}}},
			{Index: 2, Placements: []Placement{{ServerID: "S1", RemoteTable: "b"}}},
		}, "contiguous"},
		{"no placement", &ShardSpec{Column: "k"}, []Shard{{Index: 0}},
			"at least one placement"},
		{"bound count", &ShardSpec{Column: "k", Method: ShardRange}, mkShards(3),
			"bounds"},
		{"null bound", &ShardSpec{Column: "k", Method: ShardRange,
			Bounds: []sqltypes.Value{sqltypes.Null}}, mkShards(2), "NULL"},
		{"descending bounds", &ShardSpec{Column: "k", Method: ShardRange,
			Bounds: []sqltypes.Value{sqltypes.NewInt(5), sqltypes.NewInt(5)}}, mkShards(3),
			"ascending"},
	}
	for _, tc := range cases {
		err := New().RegisterSharded("t", schema, tc.spec, tc.shards)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
