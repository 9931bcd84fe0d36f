package remote

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/simclock"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

func simclockNew() *simclock.Clock { return simclock.New() }

// newServer builds a server with the sample schema at reduced scale.
func newTestServer(t *testing.T, cfg Config, scale int) *Server {
	t.Helper()
	s := NewServer(cfg)
	for _, g := range storage.SampleSchema(scale) {
		tab, err := g.Generate(42)
		if err != nil {
			t.Fatal(err)
		}
		s.AddTable(tab)
	}
	return s
}

// execute runs a plan through OpenPlan as one batch and returns its result
// with the rows boxed.
func execute(s *Server, p *Plan) (*Result, error) {
	cur, err := s.OpenPlan(context.Background(), p, 0)
	if err != nil {
		return nil, err
	}
	res := cur.Result()
	if res.Rel == nil {
		res.Rel = res.Col.ToRelation()
	}
	return res, nil
}

func TestServerTablesAndCatalog(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	names := s.Tables()
	if len(names) != 4 {
		t.Fatalf("tables: %v", names)
	}
	if s.Table("orders") == nil || s.Table("zzz") != nil {
		t.Fatal("table lookup")
	}
	if s.ID() != "S1" {
		t.Fatal("id")
	}
}

func TestExplainReturnsRankedDistinctPlans(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id < 50")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || len(plans) > 2 {
		t.Fatalf("plan count: %d", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i-1].Est.TotalMS > plans[i].Est.TotalMS {
			t.Fatal("plans not ranked by cost")
		}
	}
	if len(plans) == 2 && plans[0].Signature == plans[1].Signature {
		t.Fatal("duplicate signatures")
	}
	for _, p := range plans {
		if p.ServerID != "S1" || p.Est.Card < 1 || p.Est.TotalMS <= 0 {
			t.Fatalf("bad plan: %v", p)
		}
		if p.Est.FirstTupleMS > p.Est.TotalMS {
			t.Fatalf("first tuple above total: %v", p.Est)
		}
	}
}

func TestExplainSelectivePrefersIndexScan(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 10) // 10k rows
	stmt := sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id = 7")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plans[0].Signature, "IDXSCAN") {
		t.Fatalf("selective probe should pick index scan:\n%s", plans[0].Signature)
	}
}

func TestExplainUnselectivePrefersSeqScan(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 10)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_id >= 0")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plans[0].Signature, "SEQSCAN") {
		t.Fatalf("full-range probe should pick seq scan:\n%s", plans[0].Signature)
	}
}

func TestExplainUnknownTableFails(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	stmt := sqlparser.MustParse("SELECT * FROM nope")
	if _, err := s.Explain(stmt); err == nil {
		t.Fatal("unknown table must fail")
	}
}

// opaqueOp is an operator the estimator has no case for.
type opaqueOp struct{ exec.Operator }

// Explain used to drop a combination on any error and, when nothing survived,
// report only "found no valid plan". A cause that is not pruning must surface.
func TestExplainReportsNonPruningCause(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	if _, err := s.Explain(sqlparser.MustParse("SELECT *, COUNT(*) FROM orders AS o")); err == nil ||
		!strings.Contains(err.Error(), "SELECT * cannot be combined with aggregation") {
		t.Fatalf("unplannable tail: got %v", err)
	}

	// An estimator gap on one access path (orders_pk; the seqscan plan is
	// fine) fails the enumeration instead of shortening the candidate list.
	f, err := s.bind(sqlparser.MustParse("SELECT o.o_id FROM orders AS o WHERE o.o_id < 50"))
	if err != nil {
		t.Fatal(err)
	}
	leaves := f.tables[0].leaves
	leaves[len(leaves)-1] = opaqueOp{leaves[len(leaves)-1]}
	if _, _, err := f.enumerate(s, "q"); err == nil || !strings.Contains(err.Error(), "estimator does not know operator remote.opaqueOp") {
		t.Fatalf("estimator gap: got %v", err)
	}
}

func TestExplainDownServerFails(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	s.SetDown(true)
	stmt := sqlparser.MustParse("SELECT * FROM parts")
	_, err := s.Explain(stmt)
	var down *ErrServerDown
	if !errors.As(err, &down) {
		t.Fatalf("want ErrServerDown, got %v", err)
	}
}

func TestExecutePlanMatchesDirectExecution(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	stmt := sqlparser.MustParse("SELECT COUNT(*) FROM orders AS o WHERE o.o_amount > 5000")
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(s, plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Cardinality() != 1 {
		t.Fatalf("agg rows: %d", res.Rel.Cardinality())
	}
	if res.ServiceTime <= 0 {
		t.Fatalf("service time: %v", res.ServiceTime)
	}
	// Cross-check against a straight exec over the same table.
	leaf := &exec.SeqScan{Table: s.Table("orders"), As: "o"}
	op, err := exec.BuildPlan(stmt, map[string]exec.Operator{"o": leaf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := op.Execute(&exec.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows[0][0].Int() != res.Rel.Rows[0][0].Int() {
		t.Fatalf("plan result %v != direct %v", res.Rel.Rows[0], want.Rows[0])
	}
}

func TestExecutePlanWrongServerRejected(t *testing.T) {
	s1 := newTestServer(t, ProfileS1("S1"), 200)
	s2 := newTestServer(t, ProfileS2("S2"), 200)
	stmt := sqlparser.MustParse("SELECT * FROM parts LIMIT 1")
	plans, err := s1.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(s2, plans[0]); err == nil {
		t.Fatal("cross-server execution must fail")
	}
}

func TestFailureInjection(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	s.InjectFailures(1)
	stmt := sqlparser.MustParse("SELECT * FROM parts LIMIT 1")
	plans, _ := s.Explain(stmt)
	_, err := execute(s, plans[0])
	var fail *ErrServerFailure
	if !errors.As(err, &fail) {
		t.Fatalf("want failure, got %v", err)
	}
	if _, err := execute(s, plans[0]); err != nil {
		t.Fatalf("second execution should succeed: %v", err)
	}
	if s.Executed() != 1 {
		t.Fatalf("executed count: %d", s.Executed())
	}
}

func TestLoadLevelClampAndServiceTimeInflation(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	s.SetLoadLevel(-5)
	if s.LoadLevel() != 0 {
		t.Fatal("clamp low")
	}
	s.SetLoadLevel(7)
	if s.LoadLevel() != 1 {
		t.Fatal("clamp high")
	}
	res := exec.Resources{CPUOps: 10000, IOPages: 100, CachedPages: 100}
	s.SetLoadLevel(0)
	calm := s.Observe(res)
	s.SetLoadLevel(1)
	loaded := s.Observe(res)
	if loaded <= calm {
		t.Fatalf("load must inflate service time: %v vs %v", calm, loaded)
	}
	if float64(calm) != s.EstimateTime(res) {
		t.Fatal("estimate must equal zero-load observation")
	}
}

func TestBufferChurnHurtsCachedPlansMost(t *testing.T) {
	s3 := NewServer(ProfileS3("S3"))
	cached := exec.Resources{CPUOps: 1000, CachedPages: 5000}
	seq := exec.Resources{CPUOps: 1000, IOPages: 1000}
	s3.SetLoadLevel(0)
	cachedCalm, seqCalm := s3.Observe(cached), s3.Observe(seq)
	s3.SetLoadLevel(1)
	cachedLoaded, seqLoaded := s3.Observe(cached), s3.Observe(seq)
	cachedBlowup := float64(cachedLoaded) / float64(cachedCalm)
	seqBlowup := float64(seqLoaded) / float64(seqCalm)
	if cachedBlowup < 3*seqBlowup {
		t.Fatalf("cache-reliant plans must collapse harder on S3: cached %.1fx vs seq %.1fx", cachedBlowup, seqBlowup)
	}
}

func TestProbe(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	pt, err := s.Probe(context.Background())
	if err != nil || pt <= 0 {
		t.Fatalf("probe: %v %v", pt, err)
	}
	s.SetLoadLevel(1)
	pt2, _ := s.Probe(context.Background())
	if pt2 <= pt {
		t.Fatal("probe must reflect load")
	}
	s.SetDown(true)
	if _, err := s.Probe(context.Background()); err == nil {
		t.Fatal("down probe must fail")
	}
}

func TestApplyUpdateBurst(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 200)
	tab := s.Table("orders")
	v0 := tableVersion(tab)
	if err := s.ApplyUpdateBurst("orders", 50, 7); err != nil {
		t.Fatal(err)
	}
	if v := tableVersion(tab); v != v0+50 {
		t.Fatalf("version: %d -> %d", v0, v)
	}
	if err := s.ApplyUpdateBurst("nope", 1, 1); err == nil {
		t.Fatal("unknown table")
	}
}

func TestPlanSignatureIdenticalAcrossReplicas(t *testing.T) {
	// Replicas generated with the same seed must yield identical plan
	// signatures — §4.1 requires exchangeable plans to be identical.
	s1 := newTestServer(t, ProfileS1("S1"), 100)
	s2 := newTestServer(t, ProfileS2("S2"), 100)
	stmt := sqlparser.MustParse("SELECT p.p_id FROM parts AS p WHERE p.p_id < 100")
	p1, err := s1.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p1[0].Signature != p2[0].Signature {
		t.Fatalf("replica signatures differ:\n%s\nvs\n%s", p1[0].Signature, p2[0].Signature)
	}
}

func TestExplainJoinQueryEnumeratesAlgorithms(t *testing.T) {
	s := newTestServer(t, ProfileS3("S3"), 100)
	stmt := sqlparser.MustParse(`SELECT SUM(l.l_price) FROM orders AS o JOIN lineitem AS l ON o.o_id = l.l_orderkey WHERE o.o_amount > 9000`)
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("join query should have >=2 candidate plans, got %d", len(plans))
	}
	res, err := execute(s, plans[0])
	if err != nil {
		t.Fatalf("executing best plan:\n%s\n%v", plans[0].Explain(), err)
	}
	if res.Rel.Cardinality() != 1 {
		t.Fatalf("agg result: %v", res.Rel)
	}
	// Both plans must produce identical answers.
	res2, err := execute(s, plans[1])
	if err != nil {
		t.Fatalf("executing alternative plan:\n%s\n%v", plans[1].Explain(), err)
	}
	a, b := res.Rel.Rows[0][0].Float(), res2.Rel.Rows[0][0].Float()
	if diff := a - b; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("plan answers differ: %v vs %v", res.Rel.Rows[0], res2.Rel.Rows[0])
	}
}

func TestThreeWayJoinPlansAndExecutes(t *testing.T) {
	s := newTestServer(t, ProfileS2("S2"), 200)
	stmt := sqlparser.MustParse(`SELECT COUNT(*) FROM customer AS c
		JOIN orders AS o ON o.o_custkey = c.c_id
		JOIN lineitem AS l ON l.l_orderkey = o.o_id
		WHERE c.c_id < 3`)
	plans, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(s, plans[0]); err != nil {
		t.Fatalf("three-way join failed:\n%s\n%v", plans[0].Explain(), err)
	}
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	s := newTestServer(t, ProfileS1("S1"), 100)
	stmt := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 100")
	if _, err := s.Explain(stmt); err != nil {
		t.Fatal(err)
	}
	st := s.StatementCacheStats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("first explain: hits=%d misses=%d", st.Hits, st.Misses)
	}
	p1, err := s.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if st = s.StatementCacheStats(); st.Hits != 1 {
		t.Fatalf("second explain should hit: hits=%d", st.Hits)
	}
	// Cached plans remain executable.
	if _, err := execute(s, p1[0]); err != nil {
		t.Fatal(err)
	}
	// Mutating the table invalidates the entry.
	if err := s.ApplyUpdateBurst("orders", 1, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(stmt); err != nil {
		t.Fatal(err)
	}
	if st = s.StatementCacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("after mutation: hits=%d misses=%d", st.Hits, st.Misses)
	}
	// Different parameter values do NOT share an entry (estimates differ).
	stmt2 := sqlparser.MustParse("SELECT SUM(o.o_amount) FROM orders AS o WHERE o.o_amount > 9999")
	if _, err := s.Explain(stmt2); err != nil {
		t.Fatal(err)
	}
	if st = s.StatementCacheStats(); st.Misses != 3 {
		t.Fatalf("different literal must miss: misses=%d", st.Misses)
	}
}

func TestProfilesSanity(t *testing.T) {
	s1, s2, s3 := ProfileS1("S1"), ProfileS2("S2"), ProfileS3("S3")
	// S3 is the most powerful machine on every hardware axis.
	if !(s3.Hardware.CPUOpsPerMS > s2.Hardware.CPUOpsPerMS && s2.Hardware.CPUOpsPerMS > s1.Hardware.CPUOpsPerMS) {
		t.Fatal("CPU ordering")
	}
	if !(s3.Hardware.IOPagesPerMS > s2.Hardware.IOPagesPerMS && s2.Hardware.IOPagesPerMS > s1.Hardware.IOPagesPerMS) {
		t.Fatal("IO ordering")
	}
	// S3's buffer pool is effectively warm at baseline; S1 misses half.
	if !(s3.Hardware.CacheMissFrac < s2.Hardware.CacheMissFrac && s2.Hardware.CacheMissFrac < s1.Hardware.CacheMissFrac) {
		t.Fatal("cache-miss ordering")
	}
	// ... but S3's pool churns hardest under update load: the Figure 9 hook.
	if !(s3.Contention.BufferChurn > s2.Contention.BufferChurn && s2.Contention.BufferChurn > s1.Contention.BufferChurn) {
		t.Fatal("churn ordering")
	}
}

func TestInducedLoadHeatsAndCools(t *testing.T) {
	cfg := ProfileS2("S")
	cfg.InducedLoad = InducedLoadProfile{WindowMS: 100, Gain: 10}
	s := NewServer(cfg)
	clock := simclockNew()
	s.SetClock(clock)
	if s.EffectiveLoad() != 0 {
		t.Fatal("cold server")
	}
	// Work heats the server...
	s.Observe(exec.Resources{CPUOps: 5000})
	if s.EffectiveLoad() <= 0 {
		t.Fatal("work must induce load")
	}
	heated := s.EffectiveLoad()
	// ...and aging past the window cools it.
	clock.Advance(200)
	if s.EffectiveLoad() != 0 {
		t.Fatalf("load must decay: %g (was %g)", s.EffectiveLoad(), heated)
	}
	// Background load adds on top, clamped at 1.
	s.SetLoadLevel(0.9)
	s.Observe(exec.Resources{CPUOps: 500000})
	if s.EffectiveLoad() != 1 {
		t.Fatalf("clamp: %g", s.EffectiveLoad())
	}
}

func TestInducedLoadDisabledWithoutClock(t *testing.T) {
	cfg := ProfileS2("S")
	cfg.InducedLoad = InducedLoadProfile{WindowMS: 100, Gain: 10}
	s := NewServer(cfg)
	s.Observe(exec.Resources{CPUOps: 50000})
	if s.EffectiveLoad() != 0 {
		t.Fatal("no clock, no induced load")
	}
	if s.Config().InducedLoad.Gain != 10 {
		t.Fatal("config round-trip")
	}
}
