package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	fedqcc "repro"
	"repro/internal/experiment"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run of one workload reports.
type outcome struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	Passes     int      `json:"passes"`
	ColdStarts int      `json:"cold_starts"`
	Queries    int      `json:"distinct_queries"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	WallS      float64  `json:"wall_s"`
	Metrics    []metric `json:"metrics"`
}

func (o *outcome) add(name string, value float64, unit string) {
	o.Metrics = append(o.Metrics, metric{name, value, unit})
}

// runConfig is what the flags decide about one run.
type runConfig struct {
	seed int64
	// passesScale scales every workload's fixed pass count; gated numbers
	// use 1.
	passesScale float64
	// seconds is the length of the measured phase. The fixed passes always
	// run in full (counts must repeat exactly); the rest of the time goes
	// to further cold starts, which steady setup_s.
	seconds float64
	// tableScale, when set, replaces every workload's scale divisor: the
	// tests run the harness over tables small enough to build in
	// milliseconds.
	tableScale int
	// spansDir is where the traced run writes spans_<workload>.json; empty
	// means nowhere.
	spansDir string
	// tamper, when set, rewrites oracle answers before comparison; the
	// test that proves a wrong answer is counted uses it.
	tamper func(qi int, want *fedqcc.Relation) *fedqcc.Relation
}

func (c runConfig) passes(s *spec) int {
	return max(1, int(math.Round(float64(s.passes)*c.passesScale)))
}

// scale is the divisor of the sample schema's table sizes this run builds
// the workload's federation, probe handles and oracle at.
func (c runConfig) scale(s *spec) int {
	if c.tableScale > 0 {
		return c.tableScale
	}
	return s.scale
}

// answer pins one distinct query's first-pass result.
type answer struct {
	rel  *fedqcc.Relation
	rows int
	sum  uint64
}

// checker counts operations and judges answers.
type checker struct {
	ordered   []bool
	ref       []answer           // first-pass answers, oracle-checked
	last      []*fedqcc.Relation // most recent pass's answers
	attempted int
	failed    int
	failures  []string
	tamper    func(qi int, want *fedqcc.Relation) *fedqcc.Relation
}

func newChecker(queries []string, tamper func(int, *fedqcc.Relation) *fedqcc.Relation) (*checker, error) {
	c := &checker{
		ordered: make([]bool, len(queries)),
		ref:     make([]answer, len(queries)),
		last:    make([]*fedqcc.Relation, len(queries)),
		tamper:  tamper,
	}
	for i, q := range queries {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		c.ordered[i] = len(stmt.OrderBy) > 0
	}
	return c, nil
}

func (c *checker) fail(qi int, what string) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("query %d: %s", qi, what))
	}
}

// observe judges one executed query. Read-only workloads must reproduce the
// first-pass answer: routing never changes answers. The bit-exact checksum
// is the allocation-free fast path; a mismatch falls back to the repo's own
// tolerant comparison, because a different replica may sum floats in a
// different order.
func (c *checker) observe(qi int, res *fedqcc.QueryResult, err error, pinned bool) {
	c.attempted++
	if err != nil {
		c.fail(qi, err.Error())
		return
	}
	c.last[qi] = res.Rows
	if !pinned {
		return
	}
	ref := &c.ref[qi]
	if len(res.Rows.Rows) == ref.rows && checksum(res.Rows) == ref.sum {
		return
	}
	if diff := experiment.RelationsEquivalent(ref.rel, res.Rows, c.ordered[qi]); diff != "" {
		c.fail(qi, "answer changed between passes: "+diff)
	}
}

// againstOracle compares the most recent pass in full with the single-site
// oracle; each mismatch is a failed operation.
func (c *checker) againstOracle(o *oracle, queries []string) {
	for qi, sql := range queries {
		got := c.last[qi]
		if got == nil {
			continue // the query itself failed and is already counted
		}
		want, err := o.answer(sql)
		if err != nil {
			c.fail(qi, "oracle: "+err.Error())
			continue
		}
		if c.tamper != nil {
			want = c.tamper(qi, want)
		}
		if diff := experiment.RelationsEquivalent(want, got, c.ordered[qi]); diff != "" {
			c.fail(qi, "differs from oracle: "+diff)
		}
	}
}

func (c *checker) pin() {
	for qi, rel := range c.last {
		if rel != nil {
			c.ref[qi] = answer{rel: rel, rows: len(rel.Rows), sum: checksum(rel)}
		}
	}
}

// checksum is an order-insensitive, allocation-free digest of a relation.
func checksum(rel *fedqcc.Relation) uint64 {
	const prime = 1099511628211
	var sum uint64
	for _, row := range rel.Rows {
		h := uint64(14695981039346656037)
		for _, v := range row {
			var vh uint64
			switch v.Kind() {
			case sqltypes.KindNull:
				vh = sqltypes.HashNull()
			case sqltypes.KindFloat:
				vh = sqltypes.HashFloat64(v.Float())
			case sqltypes.KindString:
				vh = sqltypes.HashString(v.Str())
			default:
				vh = sqltypes.HashInt64(v.Int())
			}
			h = (h ^ vh) * prime
		}
		sum += h
	}
	return sum
}

// recorder accumulates one class of passes (untraced or traced). Its
// arrays are allocated before the timed phase, so the allocation counters
// see the program under test, not the harness.
type recorder struct {
	best       []int64   // per distinct query: min wall ns over passes
	raw        []int64   // every counted sample's wall ns
	resp       []float64 // QueueWait + ResponseTime, virtual ms
	first      []float64 // QueueWait + FirstRowTime, virtual ms
	mergeMS    float64
	fragments  int64
	wireBytes  int64
	estErr     float64
	estErrN    int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	cpuNS      int64
	publishNS  int64 // best PublishNow call
	// onQuery, when set, sees every result outside the wall timer (the
	// traced run reads the program's spans there).
	onQuery func(pass, qi int, start time.Time, dur time.Duration, res *fedqcc.QueryResult)
}

func newRecorder(nq, passes int) *recorder {
	r := &recorder{
		best:      make([]int64, nq),
		raw:       make([]int64, 0, nq*passes),
		resp:      make([]float64, 0, nq*passes),
		first:     make([]float64, 0, nq*passes),
		publishNS: math.MaxInt64,
	}
	for i := range r.best {
		r.best[i] = math.MaxInt64
	}
	return r
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPass replays the query list once. counted passes feed every metric;
// uncounted ones (beyond the fixed pass count) only lower the per-query
// wall minima.
func (e *env) runPass(pass int, rec *recorder, chk *checker, counted bool) error {
	if e.spec.prePass != nil {
		if err := e.spec.prePass(e, pass); err != nil {
			return fmt.Errorf("%s: before pass %d: %w", e.spec.name, pass, err)
		}
	}
	e.cal.ProbeNow()
	var m0, m1 runtime.MemStats
	frags := 0
	cpu0 := cpuNow()
	runtime.ReadMemStats(&m0)
	for qi, sql := range e.queries {
		t0 := time.Now()
		res, err := e.fed.Query(sql)
		wall := time.Since(t0)
		dt := wall.Nanoseconds()
		if dt < rec.best[qi] {
			rec.best[qi] = dt
		}
		chk.observe(qi, res, err, !e.spec.churn)
		if err == nil && counted {
			rec.raw = append(rec.raw, dt)
			rec.resp = append(rec.resp, float64(res.QueueWait+res.ResponseTime))
			rec.first = append(rec.first, float64(res.QueueWait+res.FirstRowTime))
			rec.mergeMS += float64(res.MergeTime)
			frags += len(res.FragmentTimes)
		}
		if err == nil && rec.onQuery != nil {
			rec.onQuery(pass, qi, t0, wall, res)
		}
		if (qi+1)%publishEvery == 0 {
			p0 := time.Now()
			e.cal.PublishNow()
			if d := time.Since(p0).Nanoseconds(); d < rec.publishNS {
				rec.publishNS = d
			}
		}
	}
	runtime.ReadMemStats(&m1)
	if !counted {
		return nil
	}
	rec.cpuNS += cpuNow() - cpu0
	rec.mallocs += m1.Mallocs - m0.Mallocs
	rec.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	rec.gcCycles += m1.NumGC - m0.NumGC
	rec.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
	rec.fragments += int64(frags)
	// The meta-wrapper's run log keeps its most recent 4096 entries; this
	// pass's fragments are its tail.
	log := e.fed.RunLog()
	if frags > len(log) {
		return fmt.Errorf("%s: pass %d ran %d fragments but the run log holds %d", e.spec.name, pass, frags, len(log))
	}
	for _, entry := range log[len(log)-frags:] {
		rec.wireBytes += int64(entry.OutBytes)
		if entry.ObservedMS > 0 {
			rec.estErr += math.Abs(entry.EstMS-entry.ObservedMS) / entry.ObservedMS
			rec.estErrN++
		}
	}
	return nil
}

// coldStart is the unit setup_s times: build the federation, apply flags
// and QCC, and answer every distinct query once from cold caches. A forced
// collection first drops whatever the previous start left behind.
func coldStart(s *spec, cfg runConfig, queries []string) (*env, *checker, float64, error) {
	runtime.GC()
	chk, err := newChecker(queries, cfg.tamper)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	e, err := s.start(cfg, queries)
	if err != nil {
		return nil, nil, 0, err
	}
	for qi, sql := range queries {
		res, err := e.fed.Query(sql)
		chk.observe(qi, res, err, false)
	}
	return e, chk, time.Since(t0).Seconds(), nil
}

// prepare makes the first cold start, keeps its federation, checks its cold
// answers against the oracle and pins them as the read-only reference.
func prepare(s *spec, cfg runConfig) (*env, *checker, float64, error) {
	queries := s.queries(rand.New(rand.NewSource(cfg.seed)))
	orc, err := newOracle(cfg.scale(s))
	if err != nil {
		return nil, nil, 0, err
	}
	e, chk, took, err := coldStart(s, cfg, queries)
	if err != nil {
		return nil, nil, 0, err
	}
	e.oracle = orc
	chk.againstOracle(orc, queries)
	chk.pin()
	return e, chk, took, nil
}

// Cold starts are spread over the whole run, because the machine changes
// speed in spells of 5 to 15 seconds and setup_s is their minimum: the one
// that builds the measured federation, one after each quarter of the fixed
// passes, and after the passes at least one more and as many as the rest
// of the measured phase holds.
const (
	startsInPasses = 4
	lateStarts     = 1
)

// runEndToEnd measures one workload with tracing off and reports the
// end-to-end metrics plus the harness's own diagnostics.
func runEndToEnd(s *spec, cfg runConfig) (*outcome, error) {
	began := time.Now()
	e, chk, first, err := prepare(s, cfg)
	if err != nil {
		return nil, err
	}
	starts := []float64{first}
	// again makes one more cold start beside the measured federation and
	// collects what it leaves, so the next pass begins on a clean heap.
	again := func() error {
		_, c, took, err := coldStart(s, cfg, e.queries)
		if err != nil {
			return err
		}
		starts = append(starts, took)
		chk.attempted, chk.failed = chk.attempted+c.attempted, chk.failed+c.failed
		chk.failures = append(chk.failures, c.failures...)
		runtime.GC()
		return nil
	}
	passes := cfg.passes(s)
	quarter := (passes + startsInPasses - 1) / startsInPasses
	rec := newRecorder(len(e.queries), passes)
	runtime.GC()

	phase := time.Now()
	for p := 0; p < passes; p++ {
		if err := e.runPass(p, rec, chk, true); err != nil {
			return nil, err
		}
		if (p+1)%quarter == 0 && p+1 < passes {
			if err := again(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if s.churn {
		chk.againstOracle(e.oracle, e.queries)
	}
	for i := 0; i < lateStarts || time.Since(phase).Seconds() < cfg.seconds; i++ {
		if err := again(); err != nil {
			return nil, err
		}
	}

	out := &outcome{
		Workload: s.name, Seed: cfg.seed, Passes: passes, ColdStarts: len(starts), Queries: len(e.queries),
		Attempted: chk.attempted, Failed: chk.failed, Failures: chk.failures,
	}
	n := float64(len(rec.raw))
	if n == 0 {
		return nil, fmt.Errorf("%s: no query succeeded", s.name)
	}
	sort.Float64s(rec.resp)
	out.add("setup_s", slices.Min(starts), "s")
	out.add("virt_resp_ms_mean", experiment.Mean(rec.resp), "vms")
	out.add("virt_resp_ms_p50", around(rec.resp, 0.50), "vms")
	out.add("virt_resp_ms_p95", around(rec.resp, 0.95), "vms")
	out.add("virt_first_row_ms_mean", experiment.Mean(rec.first), "vms")
	out.add("wire_bytes_per_query", float64(rec.wireBytes)/n, "B")
	out.add("allocs_per_query", float64(rec.mallocs)/n, "count")
	out.add("alloc_kb_per_query", float64(rec.allocBytes)/n/1024, "KiB")
	out.add("live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MiB")
	addHarness(out, rec)
	out.WallS = time.Since(began).Seconds()
	return out, nil
}

// addHarness reports the wall cost per query as best-of-pass minima, how
// disturbed the machine was, and what the best-of statistic hides. None of
// it is gated: on a shared machine no wall number holds a 25% bound.
func addHarness(out *outcome, rec *recorder) {
	n := float64(len(rec.raw))
	raw, best := micros(rec.raw), micros(rec.best)
	rawMean, bestMean := experiment.Mean(raw), experiment.Mean(best)
	out.add("federation.wall_best_us_per_query", bestMean, "us")
	out.add("federation.wall_best_us_p50", percentile(best, 0.5), "us")
	out.add("harness.wall_us_mean_raw", rawMean, "us")
	out.add("harness.wall_us_p95_raw", percentile(raw, 0.95), "us")
	out.add("harness.cpu_us_per_query", float64(rec.cpuNS)/n/1e3, "us")
	out.add("harness.gc_cycles", float64(rec.gcCycles), "count")
	out.add("harness.gc_pause_ms", float64(rec.gcPauseNS)/1e6, "ms")
	out.add("harness.noise_ratio", rawMean/bestMean, "ratio")
	out.add("harness.timer_ns", perCall(func() { _ = time.Now() }), "ns")
}
