package integrator_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/integrator"
	"repro/internal/metawrapper"
	"repro/internal/remote"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
	"repro/internal/wrapper"
)

// The II merge consumes fragment batches while the fragments are still
// shipping. These tests hold that hand-off to its failure contract: no
// deadlock whatever the dispatch fan-out, a fragment dying mid-stream stops
// its siblings and the running merge and surfaces as the usual typed error,
// nothing partial escapes, no goroutine outlives ExecuteContext — and to its
// allocation budget: no fragment is copied on its way through the merge.

const gatherJoin = `SELECT o.o_priority, COUNT(*), SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey GROUP BY o.o_priority ORDER BY o.o_priority`

// hookedWrapper decorates a wrapper's shipments: beforeBatch runs before
// batch n (from 0) of every shipment is delivered and may fail the shipment;
// replay, when set, serves a recorded shipment instead of asking the server.
type hookedWrapper struct {
	wrapper.Wrapper
	mu          sync.Mutex
	beforeBatch func(n int) error
	record      map[string]*recordedStream // by plan SQL
	replay      bool
}

type recordedStream struct {
	batches []*remote.Batch
	arrive  []simclock.Time
	outcome *wrapper.StreamOutcome
}

func (w *hookedWrapper) before(n int) error {
	w.mu.Lock()
	hook := w.beforeBatch
	w.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(n)
}

func (w *hookedWrapper) Ship(ctx context.Context, plan *remote.Plan, batchRows int, emit func(*remote.Batch, simclock.Time)) (*wrapper.StreamOutcome, error) {
	w.mu.Lock()
	rec, replay := w.record[plan.SQL], w.replay
	w.mu.Unlock()
	if replay && rec != nil {
		for n, b := range rec.batches {
			if err := w.before(n); err != nil {
				return nil, err
			}
			emit(b, rec.arrive[n])
		}
		return rec.outcome, nil
	}
	rec = &recordedStream{}
	w.mu.Lock()
	if w.record != nil {
		w.record[plan.SQL] = rec
	}
	w.mu.Unlock()
	// A failing hook stops the inner shipment through its context.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed error
	out, err := w.Wrapper.Ship(sctx, plan, batchRows, func(b *remote.Batch, at simclock.Time) {
		if failed = w.before(len(rec.batches)); failed != nil {
			cancel()
			return
		}
		rec.batches, rec.arrive = append(rec.batches, b), append(rec.arrive, at)
		emit(b, at)
	})
	if failed != nil {
		return nil, failed
	}
	if err != nil {
		return nil, err
	}
	rec.outcome = out
	return out, nil
}

// hookedII rebuilds the scenario's integrator over decorated wrappers.
func hookedII(sc *scenario.Scenario) (*integrator.II, map[string]*hookedWrapper) {
	hooked := map[string]*hookedWrapper{}
	var all []wrapper.Wrapper
	for _, id := range sc.MW.Servers() {
		hooked[id] = &hookedWrapper{Wrapper: sc.MW.Wrapper(id)}
		all = append(all, hooked[id])
	}
	return integrator.New(integrator.Config{Catalog: sc.Catalog, MW: metawrapper.New(all...), Node: sc.IINode, Clock: sc.Clock}), hooked
}

// within fails the test when fn does not return in time: a lost wake-up
// between a fragment goroutine and the merge would otherwise hang the run.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("still running after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// settledGoroutines waits for goroutines that have finished their work to be
// gone (a goroutine is still counted between its last statement and its exit)
// and returns the count.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > atMost && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

func requireSameRelation(t *testing.T, label string, want, got *sqltypes.Relation) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		for j := range row {
			if got.Rows[i][j] != row[j] {
				t.Fatalf("%s: cell (%d,%d) %v, want %v", label, i, j, got.Rows[i][j], row[j])
			}
		}
	}
}

func slowestFragment(res *integrator.QueryResult) simclock.Time {
	var slowest simclock.Time
	for _, ft := range res.FragmentTimes {
		slowest = max(slowest, ft)
	}
	return slowest
}

// TestResponseTimeIgnoresTheScheduler: where the merge's work lands on the
// virtual clock depends on the plan-order pulls and the batches' arrival
// stamps alone. Fifty runs of the 4-shard gather join and of the replica cross
// join give the same fifty response times, bit for bit, with one processor or
// several.
func TestResponseTimeIgnoresTheScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	federations := []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{
		{"4-shard gather join", func() (*scenario.Scenario, error) {
			return scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: 40})
		}},
		{"replica cross join", func() (*scenario.Scenario, error) {
			return scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 20})
		}},
	}
	for _, fed := range federations {
		var want []integrator.QueryResult
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			sc, err := fed.build()
			if err != nil {
				t.Fatal(err)
			}
			got := make([]integrator.QueryResult, 50)
			within(t, 60*time.Second, func() {
				for run := range got {
					res, err := sc.II.Query(gatherJoin)
					if err != nil {
						t.Error(err)
						return
					}
					got[run] = *res
				}
			})
			if t.Failed() {
				return
			}
			if want == nil {
				want = got
				var overlap simclock.Time
				for _, res := range got {
					overlap += slowestFragment(&res) + res.MergeTime - res.ResponseTime
				}
				if overlap <= 0 {
					t.Fatalf("%s: no merge work overlapped an arrival in 50 runs; the test would pass on a store-and-forward clock", fed.name)
				}
				continue
			}
			for run := range got {
				if got[run].ResponseTime != want[run].ResponseTime || got[run].MergeTime != want[run].MergeTime || got[run].FirstRowTime != want[run].FirstRowTime {
					t.Fatalf("%s, run %d at GOMAXPROCS %d: response/merge/first row %v/%v/%v, want %v/%v/%v",
						fed.name, run, procs, got[run].ResponseTime, got[run].MergeTime, got[run].FirstRowTime,
						want[run].ResponseTime, want[run].MergeTime, want[run].FirstRowTime)
				}
			}
		}
	}
}

// TestFragmentFailureMidStreamStopsTheMerge: lineitem's stream dies after its
// third batch, when the merge has already built the join's hash table and
// probed with the first batches. The attempt must return the typed fragment
// error and nothing else, every goroutine must be gone when it returns, and
// the retry loop must re-plan around the failed server and deliver the clean
// run's rows.
func TestFragmentFailureMidStreamStopsTheMerge(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	ii, hooked := hookedII(sc)
	clean, err := ii.Query(gatherJoin)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := ii.Compile(gatherJoin)
	if err != nil {
		t.Fatal(err)
	}
	var victim string // the server shipping lineitem in the compiled plan
	for _, f := range gp.Fragments {
		if f.Spec.Stmt.Tables()[0].Name == "lineitem" {
			victim = f.ServerID
		}
	}
	boom := errors.New("link reset mid-stream")
	arm := func(times int) {
		w := hooked[victim]
		w.mu.Lock()
		defer w.mu.Unlock()
		w.beforeBatch = func(n int) error {
			if n == 3 && times > 0 {
				times--
				return boom
			}
			return nil
		}
	}

	arm(1)
	before := runtime.NumGoroutine()
	var res *integrator.QueryResult
	within(t, 30*time.Second, func() { res, err = ii.ExecuteContext(context.Background(), gp) })
	var fe *integrator.FragmentError
	if res != nil || !errors.As(err, &fe) || fe.ServerID != victim || !errors.Is(err, boom) {
		t.Fatalf("a fragment failing mid-stream returned (%v, %v); want no result and the FragmentError of %s", res, err, victim)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before ExecuteContext, %d after it returned", before, after)
	}

	arm(1)
	within(t, 30*time.Second, func() { res, err = ii.Query(gatherJoin) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried != 1 {
		t.Fatalf("retried %d times, want 1", res.Retried)
	}
	for id, server := range res.ExecutedServers {
		if server == victim {
			t.Fatalf("the retry ran %s on %s again, the server that had just failed it", id, victim)
		}
	}
	requireSameRelation(t, "after the retry", clean.Rel, res.Rel)
}

// TestCallerCancelMidMerge: the caller gives up while lineitem is still
// shipping and the merge is probing. Both entry points return the context's
// error, no result, and leave no goroutine behind.
func TestCallerCancelMidMerge(t *testing.T) {
	sc, err := scenario.BuildReplicaPair(scenario.ReplicaOptions{Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	ii, hooked := hookedII(sc)
	gp, err := ii.Compile(gatherJoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		call func(ctx context.Context) (*integrator.QueryResult, error)
	}{
		{"ExecuteContext", func(ctx context.Context) (*integrator.QueryResult, error) { return ii.ExecuteContext(ctx, gp) }},
		{"QueryContext", func(ctx context.Context) (*integrator.QueryResult, error) { return ii.QueryContext(ctx, gatherJoin) }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		for _, w := range hooked {
			w.mu.Lock()
			w.beforeBatch = func(n int) error {
				if n == 3 {
					cancel()
				}
				return nil
			}
			w.mu.Unlock()
		}
		before := runtime.NumGoroutine()
		var res *integrator.QueryResult
		within(t, 30*time.Second, func() { res, err = run.call(ctx) })
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cancelled mid-merge returned (%v, %v); want no result and context.Canceled", run.name, res, err)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%s: %d goroutines before, %d after it returned", run.name, before, after)
		}
	}
}

// allocatedBytes returns the bytes the process allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMergeCopiesNoFragmentTwice is the merge's allocation budget. The
// fragments are recorded once and replayed from memory, so what is measured is
// the II alone: compile (warm), dispatch, merge, boxing the result. A
// projection-only gather may allocate little more than the boxed result it
// returns (fragment batches flow through the projection as views), and a
// gather join little more than its hashed side plus its joined output: the
// hashed side is collected once and the streamed side never. The sharded
// lineitem finishes first in both joins, so it is the side hashed: in the
// first it is the large side and a second copy of it breaks the budget, in the
// second orders is and collecting the streamed side once breaks it. An
// accumulate-then-merge II copies every shipped column once or twice more and
// fails all three by a wide margin.
func TestMergeCopiesNoFragmentTwice(t *testing.T) {
	sc, err := scenario.BuildSharded(scenario.ShardedOptions{Shards: 4, Scale: 10})
	if err != nil {
		t.Fatal(err)
	}
	ii, hooked := hookedII(sc)
	measure := func(sql string) (*integrator.QueryResult, uint64) {
		for _, w := range hooked {
			w.record, w.replay = map[string]*recordedStream{}, false
		}
		res, err := ii.Query(sql) // records every fragment's stream
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range hooked {
			w.replay = true
		}
		least := ^uint64(0)
		for run := 0; run < 5; run++ {
			least = min(least, allocatedBytes(func() {
				if _, err := ii.Query(sql); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return res, least
	}
	const valueBytes, rowHeaderBytes = 32, 24

	res, got := measure(`SELECT l_id, l_orderkey, l_qty, l_price FROM lineitem WHERE l_qty < 40`)
	rows := uint64(len(res.Rel.Rows))
	if rows < 5000 {
		t.Fatalf("the gather returned %d rows; the budget needs several batches per shard", rows)
	}
	boxed := rows * (4*valueBytes + rowHeaderBytes)
	if limit := boxed * 115 / 100; got > limit {
		t.Fatalf("a projection-only gather of %d rows allocated %d bytes at the II; the boxed result is %d and the budget %d", rows, got, boxed, limit)
	}

	// joinBudget checks a gather join of orders (streamed) and the sharded
	// lineitem (hashed) against its budget. It returns the budget's headroom
	// over what was allocated and one copy of each side's shipped cells.
	joinBudget := func(sql string) (headroom, hashedCopy, streamedCopy uint64) {
		res, got := measure(sql)
		var lineEst, ordersEst float64
		var hashedRows, hashedCells, streamedCells, streamedBatches uint64
		for _, f := range res.Plan.Fragments {
			for _, b := range hooked[res.ExecutedServers[f.Spec.ID]].record[f.Plan.SQL].batches {
				n, cols := uint64(b.Col.Len()), uint64(len(b.Col.Cols))
				if f.Spec.Shard == nil {
					streamedCells += n * cols
					streamedBatches++
				} else {
					hashedRows += n
					hashedCells += n * cols
				}
			}
			if f.Spec.Shard == nil {
				ordersEst = f.Plan.Est.TotalMS
			} else {
				lineEst = max(lineEst, f.Plan.Est.TotalMS)
			}
		}
		if lineEst >= ordersEst {
			t.Fatalf("%s: lineitem is estimated to finish at %v, orders at %v; the budget assumes lineitem is hashed", sql, lineEst, ordersEst)
		}
		buckets := uint64(1)
		for buckets < hashedRows {
			buckets <<= 1
		}
		rows, outCols := uint64(len(res.Rel.Rows)), uint64(len(res.Rel.Schema.Columns))
		var joinedCols uint64
		for _, f := range res.Plan.Fragments[:2] {
			joinedCols += uint64(len(f.Plan.Root.Schema().Columns))
		}
		// Hashed side: its cells collected once (its batches come from four
		// shards, so they are concatenated), then the table: a 4 B position
		// per row and a 4 B offset per bucket and one more. Output: the joined
		// columns gathered, then boxed cells. Every streamed batch costs a few
		// KiB of fixed parts (its match lists, a joined batch, the
		// projection), the query itself some compile and dispatch state.
		hashed := hashedCells*8 + hashedRows*4 + (buckets+1)*4
		output := rows * (joinedCols*8 + outCols*valueBytes + rowHeaderBytes)
		limit := (hashed+output)*11/10 + streamedBatches*5<<10 + 64<<10
		if got > limit {
			t.Fatalf("%s: a gather join (%d hashed rows, %d streamed cells in %d batches, %d output rows) allocated %d bytes at the II; budget %d", sql, hashedRows, streamedCells, streamedBatches, rows, got, limit)
		}
		return limit - got, hashedCells * 8, streamedCells * 8
	}

	headroom, hashedCopy, _ := joinBudget(`SELECT o.o_id, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount < 500`)
	if headroom > hashedCopy*3/4 {
		t.Fatalf("budget headroom %d is no test: a second copy of the hashed side is %d bytes", headroom, hashedCopy)
	}
	headroom, _, streamedCopy := joinBudget(`SELECT o.o_id, o.o_custkey, o.o_amount, o.o_priority, o.o_qty, l.l_id FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount < 8000 AND l.l_qty < 2`)
	if headroom > streamedCopy*3/4 {
		t.Fatalf("budget headroom %d is no test: one copy of the streamed side is %d bytes", headroom, streamedCopy)
	}
}
