// Federated plan cache tests: warm compiles must be invisible in the
// answers — row-identical to cold compiles — across load-distribution
// rotation, mask/unmask cycles, remote table updates, retry-after-failure,
// and concurrent sessions racing calibration and mask churn.
package fedqcc_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/workload"
)

const (
	pcScale = 100
	pcSeed  = 11
)

func pcFederation(t testing.TB) *fedqcc.Federation {
	t.Helper()
	fed, err := fedqcc.NewPaperFederation(fedqcc.FederationOptions{Scale: pcScale, Seed: pcSeed})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// pcStatements is a repeated-workload mix: three query types, each in three
// parameter variants (each variant is a statement of its own).
func pcStatements() []string {
	return []string{
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100",
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000",
		"SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 9000",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000 AND l.l_qty < 5",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9500 AND l.l_qty < 3",
		"SELECT o.o_id, l.l_price FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9900 AND l.l_qty < 2",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.01",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.03",
		"SELECT SUM(o.o_amount) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_id WHERE c.c_discount > 0.05",
	}
}

func assertSameRows(t *testing.T, label, sql string, want, got *fedqcc.QueryResult) {
	t.Helper()
	ordered := strings.Contains(sql, "ORDER BY")
	if diff := experiment.RelationsEquivalent(want.Rows, got.Rows, ordered); diff != "" {
		t.Errorf("%s (%s): rows differ: %s", label, sql, diff)
	}
}

// paperStatements is the paper's §5.3 workload: QT1-QT4, ten instances each.
func paperStatements() []string {
	var sqls []string
	for _, it := range workload.UniformMix(10) {
		sqls = append(sqls, it.SQL)
	}
	return sqls
}

// TestPlanCacheWarmMatchesCold runs the same workload — three rounds of a
// statement list, under global load-distribution rotation — through a
// federation that drops its compile caches before every query and one that
// keeps them, and requires identical answers query-for-query. Every round
// after the first must be served warm.
func TestPlanCacheWarmMatchesCold(t *testing.T) {
	for name, sqls := range map[string][]string{"variants": pcStatements(), "paper": paperStatements()} {
		t.Run(name, func(t *testing.T) {
			const rounds = 3
			run := func(cached bool) ([]*fedqcc.QueryResult, []int64) {
				fed := pcFederation(t)
				fed.EnableQCC(fedqcc.QCCOptions{
					DisableDaemons: true,
					LoadBalance:    fedqcc.LBGlobal,
					LBCloseness:    0.5,
				})
				var out []*fedqcc.QueryResult
				var hits []int64
				for r := 0; r < rounds; r++ {
					before := fed.PlanCacheStats().Hits
					for _, q := range sqls {
						if !cached {
							fed.ResetCompileCaches()
						}
						res, err := fed.Query(q)
						if err != nil {
							t.Fatalf("cached=%v round %d (%s): %v", cached, r, q, err)
						}
						out = append(out, res)
					}
					hits = append(hits, fed.PlanCacheStats().Hits-before)
				}
				return out, hits
			}

			cold, coldHits := run(false)
			warm, warmHits := run(true)
			for i := range cold {
				assertSameRows(t, "warm vs cold", sqls[i%len(sqls)], cold[i], warm[i])
			}
			for r := range coldHits {
				if coldHits[r] != 0 {
					t.Errorf("cold run round %d: %d hits", r+1, coldHits[r])
				}
				if r > 0 && warmHits[r] != int64(len(sqls)) {
					t.Errorf("warm run round %d: %d hits, want all %d", r+1, warmHits[r], len(sqls))
				}
			}
		})
	}
}

// TestPlanCacheMaskUnmaskInvalidates masks the server a cached plan routes
// to, then unmasks it, and requires both transitions to invalidate the entry
// (cause "mask") while every answer stays row-identical.
func TestPlanCacheMaskUnmaskInvalidates(t *testing.T) {
	fed := pcFederation(t)
	const q = "SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100"

	base, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "warm repeat", q, base, res)
	if s := fed.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("repeat compile not served warm: %+v", s)
	}

	var target string
	for _, s := range res.Route {
		target = s
	}
	h, err := fed.Server(target)
	if err != nil {
		t.Fatal(err)
	}

	h.SetMasked(true)
	masked, err := fed.Query(q)
	if err != nil {
		t.Fatalf("query with %s masked: %v", target, err)
	}
	assertSameRows(t, "after mask", q, base, masked)
	for _, s := range masked.Route {
		if s == target {
			t.Fatalf("masked server %s still routed to", target)
		}
	}

	h.SetMasked(false)
	unmasked, err := fed.Query(q)
	if err != nil {
		t.Fatalf("query after unmask: %v", err)
	}
	assertSameRows(t, "after unmask", q, base, unmasked)

	stats := fed.PlanCacheStats()
	if stats.Invalidations["mask"] < 2 {
		t.Errorf("mask transitions invalidated %d entries, want >= 2 (stats %+v)",
			stats.Invalidations["mask"], stats)
	}
}

// TestPlanCacheVersionInvalidation mutates the cached statement's table on
// every replica and requires the entry to be invalidated (cause "version")
// and the recompiled answer to match a federation that never cached.
func TestPlanCacheVersionInvalidation(t *testing.T) {
	const q = "SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000"
	burst := func(fed *fedqcc.Federation) {
		for _, id := range fed.ServerIDs() {
			h, err := fed.Server(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ApplyUpdateBurst("orders", 200, 3); err != nil {
				t.Fatal(err)
			}
		}
	}

	fed := pcFederation(t)
	if _, err := fed.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Query(q); err != nil {
		t.Fatal(err)
	}
	if s := fed.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("repeat compile not served warm: %+v", s)
	}
	burst(fed)
	afterBurst, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := fed.PlanCacheStats(); s.Invalidations["version"] < 1 {
		t.Errorf("update burst did not invalidate: %+v", s)
	}

	// Control federation: identical seed and bursts, compiled cold.
	control := pcFederation(t)
	burst(control)
	control.ResetCompileCaches()
	want, err := control.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "after burst", q, want, afterBurst)
}

// TestPlanCacheRetryReusesEntry injects a transient failure at the cached
// winner and requires the retry to be served from the cache (no cold
// recompile) while steering to a different server.
func TestPlanCacheRetryReusesEntry(t *testing.T) {
	fed := pcFederation(t)
	const q = "SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 100"

	base, err := fed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, s := range base.Route {
		target = s
	}
	h, err := fed.Server(target)
	if err != nil {
		t.Fatal(err)
	}
	h.InjectFailures(1)

	res, err := fed.Query(q)
	if err != nil {
		t.Fatalf("query with transient failure: %v", err)
	}
	if res.Retried != 1 {
		t.Fatalf("retried %d times, want 1", res.Retried)
	}
	assertSameRows(t, "after retry", q, base, res)
	for _, s := range res.Route {
		if s == target {
			t.Errorf("retry routed back to the failed server %s", target)
		}
	}
	// Both the failed attempt's compile and the retry's compile were warm:
	// only the very first query was a miss.
	stats := fed.PlanCacheStats()
	if stats.Hits != 2 || stats.Misses != 1 {
		t.Errorf("retry was not served from the cache: %+v", stats)
	}
}

// TestPlanCacheConcurrentConsistency is the -race gate: several sessions
// hammer the same and different canonical statements while calibration
// factors are republished and a server's mask flips concurrently. Every
// answer must match the cold-compile baseline.
func TestPlanCacheConcurrentConsistency(t *testing.T) {
	sqls := pcStatements()

	baseFed := pcFederation(t)
	baseline := make(map[string]*fedqcc.QueryResult, len(sqls))
	for _, q := range sqls {
		baseFed.ResetCompileCaches()
		res, err := baseFed.Query(q)
		if err != nil {
			t.Fatalf("baseline (%s): %v", q, err)
		}
		baseline[q] = res
	}

	fed := pcFederation(t)
	cal := fed.EnableQCC(fedqcc.QCCOptions{DisableDaemons: true})

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // mask churn: S3 flips in and out of the candidate sets
		defer churn.Done()
		h, err := fed.Server("S3")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				h.SetMasked(false)
				return
			default:
			}
			h.SetMasked(i%2 == 0)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // calibration churn: factors republish continuously
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cal.PublishNow()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const sessions = 6
	const rounds = 4
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range sqls {
					q := sqls[(i+offset)%len(sqls)]
					res, err := fed.QueryContext(context.Background(), q)
					if err != nil {
						t.Errorf("caller %d (%s): %v", offset, q, err)
						continue
					}
					assertSameRows(t, "concurrent warm", q, baseline[q], res)
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	stats := fed.PlanCacheStats()
	if stats.Hits == 0 {
		t.Errorf("no warm compiles under concurrent churn: %+v", stats)
	}
	if stats.Hits+stats.Misses < int64(sessions*rounds*len(sqls)) {
		t.Errorf("cache saw %d compiles, want >= %d", stats.Hits+stats.Misses, sessions*rounds*len(sqls))
	}
}
