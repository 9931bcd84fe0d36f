package integrator

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// shardArrivals queues the finished streams of one sharded table t(k, v):
// len(at) shards, shard s delivering len(at[s]) batches of rows rows at the
// virtual times at[s]. Every shard's batches carry a schema of their own, as
// each decoded stream's do. Cells are distinct across shards and batches.
func shardArrivals(at [][]simclock.Time, rows int) (*arrivals, []int) {
	arr := newArrivals(len(at))
	parts := make([]int, len(at))
	for s, times := range at {
		parts[s] = s
		sch := sqltypes.NewSchema(
			sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt},
			sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindInt},
		)
		for i, when := range times {
			ks, vs := make([]int64, rows), make([]int64, rows)
			for r := range ks {
				ks[r], vs[r] = int64(r%7), int64((s*100+i)*1000+r)
			}
			cols := []*colbatch.Column{colbatch.IntColumn(ks, nil), colbatch.IntColumn(vs, nil)}
			arr.push(s, &remote.Batch{Col: colbatch.New(sch, cols, rows)}, when)
		}
		arr.end(s)
	}
	return arr, parts
}

// cursorOver opens a cursor over the arrivals with a timeline to log into.
func cursorOver(arr *arrivals, parts []int, sch *sqltypes.Schema) *fragCursor {
	var work exec.Resources
	arr.taken = timeline{node: remote.NewServer(remote.Config{ID: "II"}), work: &work}
	return &fragCursor{ctx: context.Background(), arr: arr, sch: sch, parts: parts}
}

func leafSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Table: "t", Name: "k", Type: sqltypes.KindInt},
		sqltypes.Column{Table: "t", Name: "v", Type: sqltypes.KindInt},
	)
}

// TestCursorReadsShardsInArrivalOrder: the cursor yields the batch that
// arrived first among every shard's next one, the lower plan position on a
// tie, each with the leaf's schema.
func TestCursorReadsShardsInArrivalOrder(t *testing.T) {
	at := [][]simclock.Time{{5, 9, 30}, {1, 9, 10}, {2, 3}, {}}
	// first cell of v per (shard, batch) is (s*100+i)*1000
	want := []int64{100000, 200000, 201000, 0, 1000, 101000, 102000, 2000}
	arr, parts := shardArrivals(at, 3)
	sch := leafSchema()
	c := cursorOver(arr, parts, sch)
	var got []int64
	var last simclock.Time
	for {
		b, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Schema != sch {
			t.Fatalf("batch %d carries its stream's schema, not the leaf's", len(got))
		}
		got = append(got, b.Cols[1].Ints[0])
	}
	if len(c.arr.taken.pulls) == 0 {
		t.Fatal("the cursor logged no pull")
	}
	for _, p := range c.arr.taken.pulls {
		if p.arrive < last {
			t.Fatalf("pulls go back in time: %v after %v", p.arrive, last)
		}
		last = p.arrive
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cursor yielded %v, want %v", got, want)
		}
	}
}

// TestInterleavedShardsCompileOnce: a join and an aggregation over shards
// whose batches interleave allocate no more than over the same shards read one
// after another. Every shard's stream has its own schema pointer, and a kernel
// recompiles its expressions whenever a batch's schema changes, so a cursor
// that handed batches out with their stream's schema would pay a compile on
// nearly every interleaved batch.
func TestInterleavedShardsCompileOnce(t *testing.T) {
	const shards, batches = 4, 8
	interleaved, sequential := make([][]simclock.Time, shards), make([][]simclock.Time, shards)
	for s := range shards {
		for i := range batches {
			interleaved[s] = append(interleaved[s], simclock.Time(i*10+s))
			sequential[s] = append(sequential[s], simclock.Time(s*100+i))
		}
	}
	stmt, err := sqlparser.Parse("SELECT d.k, SUM(t.v), COUNT(*) FROM d JOIN t ON d.k = t.k GROUP BY d.k")
	if err != nil {
		t.Fatal(err)
	}
	dim := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Table: "d", Name: "k", Type: sqltypes.KindInt}))
	for k := range 7 {
		dim.Rows = append(dim.Rows, sqltypes.Row{sqltypes.NewInt(int64(k))})
	}
	dimCol := colbatch.FromRelation(dim)
	merge := func(at [][]simclock.Time) func() {
		return func() {
			arr, parts := shardArrivals(at, 64)
			sch := leafSchema()
			leaves := []exec.Operator{
				&exec.Values{Rel: dim, Col: dimCol},
				&exec.BatchStream{Sch: sch, Src: cursorOver(arr, parts, sch)},
			}
			top, err := exec.BuildTop(stmt, exec.JoinLeftDeep(leaves, sqlparser.SplitConjuncts(stmt.Joins[0].On), nil))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exec.ExecuteVectorized(top, &exec.Context{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq := testing.AllocsPerRun(20, merge(sequential))
	inter := testing.AllocsPerRun(20, merge(interleaved))
	if inter > seq+4 {
		t.Fatalf("interleaved shards cost %v allocations, read one after another %v: kernels recompile per shard switch", inter, seq)
	}
}
