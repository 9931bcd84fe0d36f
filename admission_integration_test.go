// Admission-control integration tests: the gating scheduler in front of the
// integrator must be invisible when disabled (bit-identical results, charges
// and spans) and, under overload, must protect interactive latency while
// queueing or shedding batch work with typed, errors.Is-matchable errors.
package fedqcc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// TestAdmissionDisabledIdentity runs the same workload through a default
// federation and through one that had a restrictive admission policy imposed
// and then disabled. Results, response times, routes, queue waits, span trees
// and the final virtual clock must match bit for bit: the pass-through path
// may not perturb the engine.
func TestAdmissionDisabledIdentity(t *testing.T) {
	sqls := soakStatements(16)

	run := func(configure func(*fedqcc.Federation)) ([]*fedqcc.QueryResult, []string, fedqcc.Time) {
		fed := soakFederation(t)
		fed.EnableTelemetry()
		configure(fed)
		results := make([]*fedqcc.QueryResult, len(sqls))
		trees := make([]string, len(sqls))
		for i, q := range sqls {
			res, err := fed.Query(q)
			if err != nil {
				t.Fatalf("query %d (%s): %v", i, q, err)
			}
			results[i] = res
			if tr := fed.Telemetry().Tracer().Last(); tr != nil {
				trees[i] = tr.Tree()
			}
		}
		return results, trees, fed.Now()
	}

	base, baseTrees, baseClock := run(func(*fedqcc.Federation) {})
	toggled, togTrees, togClock := run(func(fed *fedqcc.Federation) {
		// Impose a restrictive policy, then revert: the zero policy must
		// restore the exact pass-through, not merely "roughly unlimited"
		// behaviour.
		fed.Admission().SetPolicy(fedqcc.AdmissionPolicy{
			MaxConcurrent: 1,
			Interactive:   fedqcc.AdmissionClassConfig{MaxConcurrent: 1, QueueDeadline: 100},
			Batch:         fedqcc.AdmissionClassConfig{HoldCostMS: 1, QueueDeadline: 100},
		})
		fed.Admission().SetPolicy(fedqcc.AdmissionPolicy{})
	})

	for i := range sqls {
		if diff := experiment.RelationsEquivalent(base[i].Rows, toggled[i].Rows, true); diff != "" {
			t.Errorf("query %d: rows differ after disable: %s", i, diff)
		}
		if base[i].ResponseTime != toggled[i].ResponseTime {
			t.Errorf("query %d: response %v vs %v", i, base[i].ResponseTime, toggled[i].ResponseTime)
		}
		if toggled[i].QueueWait != 0 || base[i].QueueWait != 0 {
			t.Errorf("query %d: pass-through queue wait %v/%v, want 0", i, base[i].QueueWait, toggled[i].QueueWait)
		}
		if fmt.Sprint(base[i].Route) != fmt.Sprint(toggled[i].Route) {
			t.Errorf("query %d: route %v vs %v", i, base[i].Route, toggled[i].Route)
		}
		if baseTrees[i] != togTrees[i] {
			t.Errorf("query %d: span tree diverged after disable:\n--- default ---\n%s--- toggled ---\n%s",
				i, baseTrees[i], togTrees[i])
		}
	}
	if baseClock != togClock {
		t.Errorf("final clock %v vs %v: disabled admission changed virtual-time charges", baseClock, togClock)
	}
	if got := base[0].AdmissionClass; got == "" {
		t.Error("admitted query carries no class name")
	}
}

func p95(durations []fedqcc.Time) fedqcc.Time {
	sorted := append([]fedqcc.Time(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// TestAdmissionOverloadBurst drives a mixed burst at twice the global cap:
// interactive queries must stay within 1.5x their uncontended p95 latency,
// light batch queries queue but complete with correct answers, heavy batch
// queries are held and shed with typed errors, and no query is silently lost.
func TestAdmissionOverloadBurst(t *testing.T) {
	qt1, err := workload.TypeByName("QT1") // large join: the heavy batch work
	if err != nil {
		t.Fatal(err)
	}
	qt4, err := workload.TypeByName("QT4") // highly selective: interactive work
	if err != nil {
		t.Fatal(err)
	}
	interactive := workload.Instances(qt4, 4)
	lightBatch := workload.Instances(qt4, 6)[4:6]
	heavyBatch := workload.Instances(qt1, 4)

	// Uncontended baseline: the same interactive queries on an idle,
	// identically-seeded federation.
	baseFed := soakFederation(t)
	var uncontended []fedqcc.Time
	for _, q := range interactive {
		res, err := baseFed.Query(q)
		if err != nil {
			t.Fatalf("uncontended %s: %v", q, err)
		}
		uncontended = append(uncontended, res.ResponseTime)
	}
	baseRows := map[string]*fedqcc.QueryResult{}
	for _, q := range lightBatch {
		res, err := baseFed.Query(q)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		baseRows[q] = res
	}

	fed := soakFederation(t)

	// Derive the hold threshold from the engine's own calibrated estimates so
	// the test tracks the cost model instead of hard-coding milliseconds.
	maxLight, minHeavy := 0.0, math.Inf(1)
	for _, q := range lightBatch {
		info, err := fed.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		maxLight = math.Max(maxLight, info.TotalCostMS)
	}
	for _, q := range heavyBatch {
		info, err := fed.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		minHeavy = math.Min(minHeavy, info.TotalCostMS)
	}
	if maxLight >= minHeavy {
		t.Fatalf("cost model does not separate light (%.2f) from heavy (%.2f) batch work", maxLight, minHeavy)
	}
	hold := (maxLight + minHeavy) / 2

	fed.Admission().SetPolicy(fedqcc.AdmissionPolicy{
		MaxConcurrent: 5, // burst of 10 = 2x the global cap
		Batch:         fedqcc.AdmissionClassConfig{MaxConcurrent: 1, HoldCostMS: hold, QueueDeadline: 60000},
	})

	type outcome struct {
		sql   string
		class string
		res   *fedqcc.QueryResult
		err   error
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []outcome
	)
	launch := func(sql, class string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := fedqcc.WithQueryClass(context.Background(), class)
			res, err := fed.QueryContext(ctx, sql)
			mu.Lock()
			outcomes = append(outcomes, outcome{sql: sql, class: class, res: res, err: err})
			mu.Unlock()
		}()
	}
	for _, q := range interactive {
		launch(q, fedqcc.ClassInteractive)
	}
	for _, q := range lightBatch {
		launch(q, fedqcc.ClassBatch)
	}
	for _, q := range heavyBatch {
		launch(q, fedqcc.ClassBatch)
	}
	wg.Wait()

	if len(outcomes) != 10 {
		t.Fatalf("lost results: %d outcomes for 10 submissions", len(outcomes))
	}
	var interactiveLat []fedqcc.Time
	successes, rejections := 0, 0
	heavySeen := 0
	for _, o := range outcomes {
		switch {
		case o.err == nil:
			successes++
			if o.res == nil {
				t.Fatalf("nil result without error for %s", o.sql)
			}
			if o.class == fedqcc.ClassInteractive {
				interactiveLat = append(interactiveLat, o.res.ResponseTime+o.res.QueueWait)
				if o.res.AdmissionClass != fedqcc.ClassInteractive {
					t.Errorf("interactive query admitted as %q", o.res.AdmissionClass)
				}
			} else if base, ok := baseRows[o.sql]; ok {
				if diff := experiment.RelationsEquivalent(base.Rows, o.res.Rows, true); diff != "" {
					t.Errorf("light batch %s: wrong answer under contention: %s", o.sql, diff)
				}
			} else {
				t.Errorf("heavy batch query %s completed; expected a shed", o.sql)
			}
		default:
			rejections++
			heavySeen++
			if !errors.Is(o.err, fedqcc.ErrAdmissionRejected) {
				t.Errorf("%s: rejection does not match ErrAdmissionRejected: %v", o.sql, o.err)
			}
			if !errors.Is(o.err, fedqcc.ErrQueueTimeout) {
				t.Errorf("%s: shed does not match ErrQueueTimeout: %v", o.sql, o.err)
			}
			var rej *fedqcc.AdmissionRejection
			if !errors.As(o.err, &rej) {
				t.Errorf("%s: error is not a typed *AdmissionRejection: %v", o.sql, o.err)
			} else if rej.Class != fedqcc.ClassBatch {
				t.Errorf("%s: shed from class %q, want batch", o.sql, rej.Class)
			}
		}
	}
	if successes+rejections != 10 {
		t.Fatalf("successes %d + rejections %d != 10", successes, rejections)
	}
	if successes != 6 || rejections != 4 {
		t.Errorf("got %d successes / %d rejections, want 6/4 (interactive+light admitted, heavy shed)", successes, rejections)
	}
	if len(interactiveLat) != 4 {
		t.Fatalf("only %d interactive queries completed", len(interactiveLat))
	}

	baseP95, burstP95 := p95(uncontended), p95(interactiveLat)
	if float64(burstP95) > 1.5*float64(baseP95) {
		t.Errorf("interactive p95 %v under burst exceeds 1.5x uncontended p95 %v", burstP95, baseP95)
	}

	st := fed.Admission().Stats()
	var batch *fedqcc.AdmissionClassStats
	for i := range st.Classes {
		if st.Classes[i].Name == fedqcc.ClassBatch {
			batch = &st.Classes[i]
		}
	}
	if batch == nil {
		t.Fatal("no batch class in admission stats")
	}
	if batch.Held < 4 || batch.Shed < 4 {
		t.Errorf("batch stats held=%d shed=%d, want >= 4 each", batch.Held, batch.Shed)
	}
	if batch.Admitted != 2 {
		t.Errorf("batch admitted %d, want 2 light queries", batch.Admitted)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("controller did not drain: running=%d queued=%d", st.Running, st.Queued)
	}

	// The queue log records the wait alongside the pure execution time.
	ls := fed.QueryLogStats()
	if ls.Retained == 0 {
		t.Error("patroller retained nothing after the burst")
	}
}
