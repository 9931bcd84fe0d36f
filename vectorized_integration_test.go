// Vectorized-engine integration tests: flipping the federation between the
// row-at-a-time and columnar executors must be invisible to everything the
// simulation measures — rows, routes, fragment times, merge times, queue
// waits, span trees, and the virtual clock — with and without an active
// admission policy. Only real wall-clock cost may differ. Both flags default
// on, so every reference arm selects the row engine with SetVectorized(false)
// and every vectorized arm turns the columnar wire off: the wire changes the
// bytes the network model charges, the engine alone must change nothing.
package fedqcc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/sqltypes"
)

// vecRunOutcome captures everything one workload run exposes to comparison.
type vecRunOutcome struct {
	results []*fedqcc.QueryResult
	trees   []string
	clock   fedqcc.Time
	fed     *fedqcc.Federation
}

// runVecWorkload executes sqls sequentially on a fresh soak federation after
// applying configure, capturing per-query results and span trees plus the
// final virtual clock.
func runVecWorkload(t *testing.T, sqls []string, configure func(*fedqcc.Federation)) vecRunOutcome {
	t.Helper()
	fed := soakFederation(t)
	fed.EnableTelemetry()
	configure(fed)
	out := vecRunOutcome{
		results: make([]*fedqcc.QueryResult, len(sqls)),
		trees:   make([]string, len(sqls)),
		fed:     fed,
	}
	for i, q := range sqls {
		res, err := fed.Query(q)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		out.results[i] = res
		if tr := fed.Telemetry().Tracer().Last(); tr != nil {
			out.trees[i] = tr.Tree()
		}
	}
	out.clock = fed.Now()
	return out
}

// cellsBitIdentical compares two values bit for bit: floats by their IEEE-754
// payload (so NaN == NaN and -0.0 != +0.0), everything else by struct
// equality. Stricter than the rounding comparison in package experiment.
func cellsBitIdentical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

// requireVecIdentity requires two runs of the same workload to be
// observationally indistinguishable. That includes the clock: the soak
// workload's merges take one batch at one instant, so the columnar merge has no
// arrival to overlap and ends where the row merge does.
func requireVecIdentity(t *testing.T, sqls []string, row, vec vecRunOutcome) {
	t.Helper()
	for i := range sqls {
		r, v := row.results[i], vec.results[i]
		if len(r.Rows.Rows) != len(v.Rows.Rows) {
			t.Fatalf("query %d (%s): %d rows (row engine) vs %d (vectorized)",
				i, sqls[i], len(r.Rows.Rows), len(v.Rows.Rows))
		}
		for ri := range r.Rows.Rows {
			for ci := range r.Rows.Rows[ri] {
				if !cellsBitIdentical(r.Rows.Rows[ri][ci], v.Rows.Rows[ri][ci]) {
					t.Fatalf("query %d (%s): cell (%d,%d) diverged: row engine %#v, vectorized %#v",
						i, sqls[i], ri, ci, r.Rows.Rows[ri][ci], v.Rows.Rows[ri][ci])
				}
			}
		}
		if r.ResponseTime != v.ResponseTime {
			t.Errorf("query %d (%s): response %v vs %v", i, sqls[i], r.ResponseTime, v.ResponseTime)
		}
		if r.FirstRowTime != v.FirstRowTime {
			t.Errorf("query %d (%s): first row %v vs %v", i, sqls[i], r.FirstRowTime, v.FirstRowTime)
		}
		if r.MergeTime != v.MergeTime {
			t.Errorf("query %d (%s): merge %v vs %v", i, sqls[i], r.MergeTime, v.MergeTime)
		}
		if r.QueueWait != v.QueueWait {
			t.Errorf("query %d (%s): queue wait %v vs %v", i, sqls[i], r.QueueWait, v.QueueWait)
		}
		if r.AdmissionClass != v.AdmissionClass {
			t.Errorf("query %d (%s): class %q vs %q", i, sqls[i], r.AdmissionClass, v.AdmissionClass)
		}
		if fmt.Sprint(r.Route) != fmt.Sprint(v.Route) {
			t.Errorf("query %d (%s): route %v vs %v", i, sqls[i], r.Route, v.Route)
		}
		if fmt.Sprint(r.FragmentTimes) != fmt.Sprint(v.FragmentTimes) {
			t.Errorf("query %d (%s): fragment times %v vs %v", i, sqls[i], r.FragmentTimes, v.FragmentTimes)
		}
		if row.trees[i] != vec.trees[i] {
			t.Errorf("query %d (%s): span tree diverged:\n--- row engine ---\n%s--- vectorized ---\n%s",
				i, sqls[i], row.trees[i], vec.trees[i])
		}
	}
	if row.clock != vec.clock {
		t.Errorf("final clock %v (row engine) vs %v (vectorized): the engines charged different virtual time",
			row.clock, vec.clock)
	}
}

// requireVectorizedEngaged fails unless the columnar engine actually executed
// remote fragments (the identity tests would pass vacuously otherwise).
func requireVectorizedEngaged(t *testing.T, out vecRunOutcome) {
	t.Helper()
	m := out.fed.Telemetry().Metrics()
	var remote int64
	for _, id := range out.fed.ServerIDs() {
		remote += m.CounterValue("exec.vectorized", id)
	}
	if remote == 0 {
		t.Fatal("exec.vectorized never incremented on any server: the columnar engine did not run")
	}
	found := false
	for _, id := range out.fed.ServerIDs() {
		if h := m.HistogramOf("exec.batch_rows", id); h != nil && h.Count() > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("exec.batch_rows recorded no samples on the vectorized run")
	}
}

// TestVectorizedIdentityStreaming is the tentpole acceptance check under the
// default streaming data path: the same random workload through a row-engine
// federation and a vectorized one must match bit for bit on everything the
// virtual-time model observes.
func TestVectorizedIdentityStreaming(t *testing.T) {
	sqls := soakStatements(16)
	row := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) { fed.SetVectorized(false) })
	vec := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.SetColumnarWire(false)
		if !fed.Vectorized() {
			t.Fatal("a new federation must run the columnar engine")
		}
	})
	requireVecIdentity(t, sqls, row, vec)
	requireVectorizedEngaged(t, vec)
	m := row.fed.Telemetry().Metrics()
	for _, id := range row.fed.ServerIDs() {
		if m.CounterValue("exec.vectorized", id) != 0 {
			t.Fatalf("exec.vectorized incremented on %s with the row engine selected", id)
		}
	}
}

// TestVectorizedIdentityUnderAdmission runs the workload through an active
// admission policy (classification, slot accounting, per-class counters) on
// both engines: the gate classifies queries by calibrated cost, so any
// engine-induced cost perturbation would surface as a class or stats diff.
func TestVectorizedIdentityUnderAdmission(t *testing.T) {
	sqls := soakStatements(12)
	policy := fedqcc.AdmissionPolicy{
		MaxConcurrent: 2,
		Interactive:   fedqcc.AdmissionClassConfig{MaxConcurrent: 2, QueueDeadline: 1e6},
		Batch:         fedqcc.AdmissionClassConfig{QueueDeadline: 1e6},
	}
	row := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.Admission().SetPolicy(policy)
		fed.SetVectorized(false)
	})
	vec := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.Admission().SetPolicy(policy)
		fed.SetColumnarWire(false)
	})
	requireVecIdentity(t, sqls, row, vec)
	requireVectorizedEngaged(t, vec)
	rs, vs := row.fed.Admission().Stats(), vec.fed.Admission().Stats()
	if fmt.Sprint(rs) != fmt.Sprint(vs) {
		t.Errorf("admission stats diverged:\nrow engine: %+v\nvectorized: %+v", rs, vs)
	}
}

// TestVectorizedToggleMidWorkload flips the engine back and forth between
// queries on one federation and compares against an all-row run: the switch
// must be safe at any query boundary and leave no residue.
func TestVectorizedToggleMidWorkload(t *testing.T) {
	sqls := soakStatements(10)
	row := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) { fed.SetVectorized(false) })

	fed := soakFederation(t)
	fed.EnableTelemetry()
	fed.SetColumnarWire(false)
	for i, q := range sqls {
		fed.SetVectorized(i%2 == 1)
		res, err := fed.Query(q)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		r := row.results[i]
		if len(r.Rows.Rows) != len(res.Rows.Rows) {
			t.Fatalf("query %d: %d rows vs %d after toggle", i, len(r.Rows.Rows), len(res.Rows.Rows))
		}
		for ri := range r.Rows.Rows {
			for ci := range r.Rows.Rows[ri] {
				if !cellsBitIdentical(r.Rows.Rows[ri][ci], res.Rows.Rows[ri][ci]) {
					t.Fatalf("query %d: cell (%d,%d) diverged after toggle", i, ri, ci)
				}
			}
		}
		if r.ResponseTime != res.ResponseTime {
			t.Errorf("query %d: response %v vs %v after toggle", i, r.ResponseTime, res.ResponseTime)
		}
	}
	if row.clock != fed.Now() {
		t.Errorf("final clock %v vs %v after mid-workload toggling", row.clock, fed.Now())
	}
}

// TestDefaultsAreColumnar pins what every public constructor builds: the
// columnar engine and the columnar wire, with no setter called. A default
// that silently flipped back to the row engine would keep every identity
// test green (they select both arms explicitly) and cost 20x the allocations.
func TestDefaultsAreColumnar(t *testing.T) {
	builders := map[string]func() (*fedqcc.Federation, string, error){
		"NewPaperFederation": func() (*fedqcc.Federation, string, error) {
			fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: 100})
			return fed, "SELECT o.o_id FROM orders AS o WHERE o.o_id < 40", err
		},
		"NewReplicaFederation": func() (*fedqcc.Federation, string, error) {
			fed, err := fedqcc.NewReplicaFederation(fedqcc.FederationOptions{Scale: 100})
			return fed, "SELECT o.o_id FROM orders AS o WHERE o.o_id < 40", err
		},
		"NewReplicatedFederation": func() (*fedqcc.Federation, string, error) {
			fed, err := fedqcc.NewReplicatedFederation(fedqcc.ReplicatedFederationOptions{Scale: 100})
			return fed, "SELECT h.h_id FROM hot2 AS h WHERE h.h_id < 40", err
		},
		"NewShardedFederation": func() (*fedqcc.Federation, string, error) {
			fed, err := fedqcc.NewShardedFederation(fedqcc.ShardedFederationOptions{Shards: 2, Scale: 100})
			return fed, "SELECT l_id FROM lineitem WHERE l_id < 40", err
		},
		"Builder": func() (*fedqcc.Federation, string, error) {
			b := fedqcc.NewBuilder(42)
			b.AddServer("S1", fedqcc.ProfileMidrange, fedqcc.LinkSpec{LatencyMS: 5, BandwidthKBps: 2000})
			for _, spec := range fedqcc.StandardSchema(100) {
				b.AddGeneratedTable("S1", spec)
			}
			fed, err := b.Build()
			return fed, "SELECT o.o_id FROM orders AS o WHERE o.o_id < 40", err
		},
	}
	for name, build := range builders {
		fed, sql, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !fed.Vectorized() || !fed.ColumnarWire() {
			t.Errorf("%s: Vectorized()=%v ColumnarWire()=%v, want both true with no setter called", name, fed.Vectorized(), fed.ColumnarWire())
		}
		fed.EnableTelemetry()
		if _, err := fed.Query(sql); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tree := fed.Telemetry().Tracer().Last().Tree(); !strings.Contains(tree, "ship=col-ship") {
			t.Errorf("%s: no fragment shipped columnar:\n%s", name, tree)
		}
		var ran int64
		for _, id := range fed.ServerIDs() {
			ran += fed.Telemetry().Metrics().CounterValue("exec.vectorized", id)
		}
		if ran == 0 {
			t.Errorf("%s: exec.vectorized did not move: the row engine answered", name)
		}
	}
}
