// Columnar-engine integration tests: every federation runs the columnar
// engine on the columnar wire, and its answers are the row kernels' answers
// over one server's tables (experiment.GroundTruth), with and without an
// active admission policy. The helpers compare two runs of one workload on
// everything the simulation measures: rows, routes, fragment times, merge
// times, queue waits, span trees and the virtual clock.
package fedqcc_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/scenario"
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
// observationally indistinguishable, the final clock included.
func requireVecIdentity(t *testing.T, sqls []string, row, vec vecRunOutcome) {
	t.Helper()
	for i := range sqls {
		r, v := row.results[i], vec.results[i]
		if len(r.Rows.Rows) != len(v.Rows.Rows) {
			t.Fatalf("query %d (%s): %d rows vs %d",
				i, sqls[i], len(r.Rows.Rows), len(v.Rows.Rows))
		}
		for ri := range r.Rows.Rows {
			for ci := range r.Rows.Rows[ri] {
				if !cellsBitIdentical(r.Rows.Rows[ri][ci], v.Rows.Rows[ri][ci]) {
					t.Fatalf("query %d (%s): cell (%d,%d) diverged: %#v vs %#v",
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
			t.Errorf("query %d (%s): span tree diverged:\n--- want ---\n%s--- got ---\n%s",
				i, sqls[i], row.trees[i], vec.trees[i])
		}
	}
	if row.clock != vec.clock {
		t.Errorf("final clock %v vs %v: the runs charged different virtual time", row.clock, vec.clock)
	}
}

// requireGroundTruth requires every statement's rows to be the row kernels'
// answer over one server holding every table of the soak federation's data.
func requireGroundTruth(t *testing.T, sqls []string, out vecRunOutcome) {
	t.Helper()
	oracle, err := scenario.BuildThreeServer(scenario.Options{Scale: soakScale, Seed: soakSeed})
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range sqls {
		want, err := experiment.GroundTruth(oracle, "S1", sql)
		if err != nil {
			t.Fatalf("query %d (%s): ground truth: %v", i, sql, err)
		}
		if diff := experiment.RelationsEquivalent(out.results[i].Rows, want, false); diff != "" {
			t.Errorf("query %d (%s): %s", i, sql, diff)
		}
	}
}

// requireVectorizedEngaged fails unless the columnar engine actually executed
// remote fragments and recorded its batch sizes.
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

// TestVectorizedIdentityStreaming: under the default streaming data path,
// the soak workload's answers on the columnar engine and wire are the row
// kernels' answers over one server's tables.
func TestVectorizedIdentityStreaming(t *testing.T) {
	sqls := soakStatements(16)
	vec := runVecWorkload(t, sqls, func(*fedqcc.Federation) {})
	requireGroundTruth(t, sqls, vec)
	requireVectorizedEngaged(t, vec)
}

// TestVectorizedIdentityUnderAdmission runs the workload through an active
// admission policy (classification, slot accounting, per-class counters):
// the answers are still the row kernels', every query is classified, and
// every grant is returned.
func TestVectorizedIdentityUnderAdmission(t *testing.T) {
	sqls := soakStatements(12)
	policy := fedqcc.AdmissionPolicy{
		MaxConcurrent: 2,
		Interactive:   fedqcc.AdmissionClassConfig{MaxConcurrent: 2, QueueDeadline: 1e6},
		Batch:         fedqcc.AdmissionClassConfig{QueueDeadline: 1e6},
	}
	vec := runVecWorkload(t, sqls, func(fed *fedqcc.Federation) {
		fed.Admission().SetPolicy(policy)
	})
	requireGroundTruth(t, sqls, vec)
	requireVectorizedEngaged(t, vec)
	for i, res := range vec.results {
		if res.AdmissionClass == "" {
			t.Errorf("query %d (%s) ran unclassified", i, sqls[i])
		}
	}
	if st := vec.fed.Admission().Stats(); st.Releases != int64(len(sqls)) || st.Running != 0 || st.Queued != 0 {
		t.Errorf("admission stats after %d sequential queries: %+v", len(sqls), st)
	}
}

// TestDefaultsAreColumnar pins what every public constructor builds: the
// columnar engine and the columnar wire.
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
			t.Errorf("%s: exec.vectorized did not move: the columnar engine did not run", name)
		}
	}
}
