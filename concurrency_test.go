// Concurrency soak tests: the federated pipeline is exercised from many
// goroutines at once and its answers are compared row-for-row against a
// sequential baseline built from the same seed. Run with -race; the suite is
// the repo's concurrency gate.
package fedqcc_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
)

const (
	soakScale   = 100 // divides the paper's table sizes; keep the soak fast under -race
	soakSeed    = 7
	soakQueries = 36
	soakWorkers = 8
)

func soakFederation(t testing.TB) *fedqcc.Federation {
	t.Helper()
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: soakScale, Seed: soakSeed})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// queryConcurrently runs the statements from `workers` goroutines, each
// calling QueryContext on the next unclaimed statement, and returns results
// and errors indexed by position, so a concurrent run compares row-for-row
// against a sequential one.
func queryConcurrently(fed *fedqcc.Federation, sqls []string, workers int) ([]*fedqcc.QueryResult, []error) {
	results := make([]*fedqcc.QueryResult, len(sqls))
	errs := make([]error, len(sqls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sqls) {
					return
				}
				results[i], errs[i] = fed.QueryContext(context.Background(), sqls[i])
			}
		}()
	}
	wg.Wait()
	return results, errs
}

func soakStatements(n int) []string {
	r := rand.New(rand.NewSource(soakSeed))
	out := make([]string, n)
	for i := range out {
		out[i] = experiment.RandomQuery(r)
	}
	return out
}

// TestConcurrentMatchesSequential runs the same random federated workload
// through a sequential federation and from concurrent goroutines over an
// identically-seeded federation, and requires identical answers in
// submission order.
func TestConcurrentMatchesSequential(t *testing.T) {
	sqls := soakStatements(soakQueries)

	seqFed := soakFederation(t)
	baseline := make([]*fedqcc.QueryResult, len(sqls))
	for i, q := range sqls {
		res, err := seqFed.Query(q)
		if err != nil {
			t.Fatalf("sequential query %d (%s): %v", i, q, err)
		}
		baseline[i] = res
	}

	concFed := soakFederation(t)
	results, errs := queryConcurrently(concFed, sqls, soakWorkers)
	for i := range sqls {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d (%s): %v", i, sqls[i], errs[i])
		}
		ordered := strings.Contains(sqls[i], "ORDER BY")
		if diff := experiment.RelationsEquivalent(baseline[i].Rows, results[i].Rows, ordered); diff != "" {
			t.Errorf("query %d (%s): concurrent answer differs from sequential: %s", i, sqls[i], diff)
		}
	}

	// Virtual-time invariant: concurrent charges stack into disjoint
	// intervals, so the final clock equals the sum of response times exactly
	// as in the sequential run.
	var sum fedqcc.Time
	for _, r := range results {
		sum += r.ResponseTime
	}
	if got := concFed.Now(); math.Abs(float64(got-sum)) > 1e-6*math.Max(1, float64(sum)) {
		t.Errorf("clock %v does not equal summed response times %v", got, sum)
	}

	// Patroller invariant: every submission logged and completed, with a
	// per-query response time rather than a wall-clock gap.
	log := concFed.QueryLog()
	if len(log) != len(sqls) {
		t.Fatalf("patroller logged %d entries, want %d", len(log), len(sqls))
	}
	for _, e := range log {
		if !e.Completed {
			t.Errorf("patroller entry %d (%s) not completed", e.ID, e.Query)
		}
		if e.Err != "" {
			t.Errorf("patroller entry %d recorded error %q", e.ID, e.Err)
		}
		if e.ResponseTime <= 0 {
			t.Errorf("patroller entry %d has response time %v", e.ID, e.ResponseTime)
		}
	}
}

// TestConcurrentSessionsWithQCC soaks a QCC-enabled federation with many
// callers querying simultaneously (every statement of every caller on a
// goroutine of its own) and checks that the calibration state stays sane:
// every query is answered, and every published factor is finite and
// positive.
func TestConcurrentSessionsWithQCC(t *testing.T) {
	fed := soakFederation(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{})
	sqls := soakStatements(soakQueries)

	const sessions = 6
	var wg sync.WaitGroup
	errCh := make(chan error, sessions*len(sqls))
	var completed atomic.Int64
	for s := 0; s < sessions; s++ {
		for i := range sqls {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				if _, err := fed.QueryContext(context.Background(), q); err != nil {
					errCh <- err
					return
				}
				completed.Add(1)
			}(sqls[(i+s)%len(sqls)])
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent query: %v", err)
	}
	if got := completed.Load(); got != sessions*int64(len(sqls)) {
		t.Errorf("%d queries completed, want %d", got, sessions*len(sqls))
	}

	cal.PublishNow()
	for _, id := range fed.ServerIDs() {
		f := cal.ServerFactor(id)
		if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			t.Errorf("server %s calibration factor %v after soak", id, f)
		}
		if cal.IsFenced(id) {
			t.Errorf("server %s fenced after a healthy soak", id)
		}
	}
	st := cal.StatsSnapshot()
	if st.Compiles <= 0 || st.Runs <= 0 {
		t.Errorf("QCC observed compiles=%d runs=%d, want both > 0", st.Compiles, st.Runs)
	}
	if st.Errors != 0 {
		t.Errorf("QCC observed %d errors during a healthy soak", st.Errors)
	}
	if got := fed.QueryLog(); len(got) != sessions*len(sqls) {
		t.Errorf("patroller logged %d entries, want %d", len(got), sessions*len(sqls))
	}
}

// TestQueryContextCancellation submits a query with an already-cancelled
// context and requires a prompt error that does not corrupt later queries.
func TestQueryContextCancellation(t *testing.T) {
	fed := soakFederation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fed.QueryContext(ctx, "SELECT o.o_id FROM orders AS o WHERE o.o_amount > 100"); err == nil {
		t.Fatal("expected error from cancelled context")
	}
	// The federation must remain fully usable.
	res, err := fed.Query("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100")
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if res.Rows.Cardinality() != 1 {
		t.Fatalf("unexpected result shape after cancellation: %d rows", res.Rows.Cardinality())
	}
}
