// The query journal seen from the public API: retention is bounded for every
// kind of entry, and a query's ID joins everything recorded about it.
package fedqcc_test

import (
	"testing"

	fedqcc "repro"
	"repro/internal/ring"
)

// TestWinnerRetentionIsBounded: the explain table used to grow by one entry
// (four maps) per compile for the life of the federation. Three times the
// bound in compiles must leave exactly the bound, the newest ones.
func TestWinnerRetentionIsBounded(t *testing.T) {
	fed := soakFederation(t)
	sqls := soakStatements(7)
	const n = 3*ring.Entries + 1
	for i := 0; i < n; i++ {
		if _, err := fed.Explain(sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
	}
	winners := fed.ExplainLog()
	if len(winners) != ring.Entries {
		t.Fatalf("%d compiles left %d winner entries, want the bound %d", n, len(winners), ring.Entries)
	}
	last, err := fed.Explain(sqls[(n-1)%len(sqls)])
	if err != nil {
		t.Fatal(err)
	}
	if got := winners[len(winners)-1]; got.Query != last.Query || len(got.Fragments) != len(last.Route) {
		t.Fatalf("newest winner is %+v, want the last statement compiled (%s)", got, last.Query)
	}
}

// TestQueryRecordJoinsByID drives cross-source joins through eight concurrent
// workers with rotation and telemetry on, and requires every result's ID to
// lead to that query's own entries and to nobody else's: its completed query
// entry, one winner (and one route decision) per compilation, exactly one run
// entry per fragment the winner names — observed time and server as the
// result reports them, each with a ship mode — and the trace of that query.
func TestQueryRecordJoinsByID(t *testing.T) {
	fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fed.EnableTelemetry()
	fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true, LoadBalance: fedqcc.LBFragment, LBCloseness: 0.5})
	var sqls []string
	for round := 0; round < 12; round++ {
		sqls = append(sqls, xjoinTemplates...)
	}
	results, errs := queryConcurrently(fed, sqls, 8)
	seen := map[int64]bool{}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if res.ID < 1 || seen[res.ID] {
			t.Fatalf("query %d has ID %d: not a fresh positive ID", i, res.ID)
		}
		seen[res.ID] = true
		rec, ok := fed.QueryRecord(res.ID)
		if !ok {
			t.Fatalf("query %d (ID %d) has no record", i, res.ID)
		}
		if q := rec.Query; q.ID != res.ID || q.Query != sqls[i] || !q.Completed || q.Err != "" || q.ResponseTime != res.ResponseTime {
			t.Fatalf("query %d: entry %+v is not its own (response %v)", i, q, res.ResponseTime)
		}
		if len(rec.Winners) != 1+res.Retried || len(rec.Decisions) != len(rec.Winners) {
			t.Fatalf("query %d: %d winners and %d decisions for %d compilations", i, len(rec.Winners), len(rec.Decisions), 1+res.Retried)
		}
		planned := map[string]bool{}
		for _, f := range rec.Winners[len(rec.Winners)-1].Fragments {
			planned[f.ID] = true
		}
		if len(rec.Runs) != len(res.FragmentTimes) || len(planned) != len(res.FragmentTimes) {
			t.Fatalf("query %d: %d run entries, %d winner fragments, %d fragments executed", i, len(rec.Runs), len(planned), len(res.FragmentTimes))
		}
		for _, run := range rec.Runs {
			if !planned[run.FragID] {
				t.Fatalf("query %d: run entry for %q, which its winner does not name: %+v", i, run.FragID, run)
			}
			delete(planned, run.FragID) // one run per fragment
			if run.ServerID != res.Route[run.FragID] || run.ObservedMS != float64(res.FragmentTimes[run.FragID]) {
				t.Fatalf("query %d: run %+v, result says %s in %v", i, run, res.Route[run.FragID], res.FragmentTimes[run.FragID])
			}
			if run.Ship.String() != "col-ship" {
				t.Fatalf("query %d: run %+v has ship mode %q, want col-ship", i, run, run.Ship)
			}
		}
		if tr := rec.Trace; tr == nil || tr.ID != res.ID || tr.Query != sqls[i] || !tr.Done() {
			t.Fatalf("query %d (ID %d): trace %+v is not this query's", i, res.ID, tr)
		}
	}
	if _, ok := fed.QueryRecord(int64(len(sqls)) + 1); ok {
		t.Fatal("a record exists for an ID no query was given")
	}

	// A retried query compiles again under the same ID: one more winner, and
	// the failure that caused it is on the record.
	srv, err := fed.Server("S1")
	if err != nil {
		t.Fatal(err)
	}
	srv.InjectFailures(1)
	fed.DisableQCC() // plain cost routing sends orders to S1
	res, err := fed.Query(xjoinTemplates[3])
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := fed.QueryRecord(res.ID)
	if res.Retried != 1 || len(rec.Winners) != 2 || len(rec.Errors) != 1 || rec.Errors[0].ServerID != "S1" || len(rec.Runs) != 1 {
		t.Fatalf("retried query: retried=%d winners=%d errors=%+v runs=%d", res.Retried, len(rec.Winners), rec.Errors, len(rec.Runs))
	}
}
