// Package remote implements the simulated remote DBMS servers of the
// federation: per-server storage catalogs, a local plan enumerator that
// returns multiple candidate plans with estimated costs (the paper's
// "possible supported execution plans and their estimated costs"), a
// timeron-style cost model, a physical executor, and a mechanistic load
// model that converts a plan's true resource consumption into simulated
// response time under the server's current background load.
//
// The essential property reproduced here is the paper's premise: a server's
// ESTIMATED cost is computed from statistics and hardware characteristics
// alone, while its OBSERVED response time additionally depends on load and
// buffer-pool health — a gap the federation's optimizer cannot see and the
// Query Cost Calibrator learns.
package remote

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/exec"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// HardwareProfile describes the physical characteristics that a DBA would
// register for a source and that the local optimizer costs plans with.
type HardwareProfile struct {
	// CPUOpsPerMS is tuple-processing throughput.
	CPUOpsPerMS float64
	// IOPagesPerMS is sequential IO throughput.
	IOPagesPerMS float64
	// CachedPagesPerMS is buffer-pool page touch throughput.
	CachedPagesPerMS float64
	// CacheMissFrac is the baseline fraction of cache-friendly page touches
	// that miss the buffer pool and go to random IO even on a calm server —
	// a property of the machine's memory size that the local optimizer DOES
	// know and cost plans with (it is why small-memory servers avoid
	// index-nested-loop plans).
	CacheMissFrac float64
	// FixedOverheadMS is the per-request setup cost (parse, catalog, plan
	// activation) — the first-tuple cost floor.
	FixedOverheadMS float64
}

// ContentionProfile describes how the server degrades under background load.
// These parameters are NOT visible to any optimizer; they only shape
// observed response times.
type ContentionProfile struct {
	// CPU inflates CPU time by load·CPU.
	CPU float64
	// IO inflates sequential IO time by load·IO.
	IO float64
	// BufferChurn converts cached page touches into real IO: the spill
	// fraction is min(1, load·BufferChurn). Small buffer pools mean high
	// churn — the configured weakness of the fast server S3.
	BufferChurn float64
	// QueueAmp amplifies total service time by (1 + load·QueueAmp),
	// modelling queueing behind the update workload.
	QueueAmp float64
}

// Config configures a Server.
type Config struct {
	ID         string
	Hardware   HardwareProfile
	Contention ContentionProfile
	// MaxPlans bounds how many candidate plans Explain returns (default 2,
	// matching the paper's examples).
	MaxPlans int
	// InducedLoad configures query-induced load (hot-spotting): the load
	// the query workload itself places on the server, on top of the
	// background update load. Zero disables it.
	InducedLoad InducedLoadProfile
	// Cache configures per-table buffer-pool residency tracking (replica
	// cache locality). Zero disables it: execution is then bit-identical to
	// the residency-less engine.
	Cache CacheProfile
}

// CacheProfile models per-table buffer-pool residency: each execution warms
// the tables it touches toward full residency and cools the rest (churn),
// and cache-friendly page touches against cold tables spill to random IO.
// The residency estimate is exposed through CacheResidency so a replica
// router can score hot fragments toward the servers whose buffer pools
// already hold them. Like ContentionProfile, none of this is visible to any
// optimizer — EstimateTime stays residency-blind, so the estimate/observed
// gap is QCC's to learn. A zero profile disables tracking entirely.
type CacheProfile struct {
	// ColdMissFrac is the extra miss fraction a fully-cold table adds to
	// cache-friendly page touches (scaled by 1-residency). 0 disables the
	// whole cache model.
	ColdMissFrac float64
	// WarmRate moves a touched table's residency toward 1 per execution
	// (default 0.5 when the model is enabled).
	WarmRate float64
	// CoolRate decays untouched tables' residency per execution (default
	// 0.1 when the model is enabled).
	CoolRate float64
	// PoolTables is the buffer pool's capacity in table-equivalents: when
	// the summed residency exceeds it, every table is evicted
	// proportionally (default 1.5 when the model is enabled). This is what
	// makes affinity a real trade-off — a server cannot keep every
	// replicated table warm at once.
	PoolTables float64
}

func (c *CacheProfile) fill() {
	if c.ColdMissFrac <= 0 {
		return
	}
	if c.WarmRate <= 0 {
		c.WarmRate = 0.5
	}
	if c.CoolRate <= 0 {
		c.CoolRate = 0.1
	}
	if c.PoolTables <= 0 {
		c.PoolTables = 1.5
	}
}

// InducedLoadProfile makes servers heat up under their own query traffic —
// the §4 premise that "selecting a low cost global query plan and applying
// this plan to all similar queries ... tends to overload a small group of
// servers". Service time spent within the trailing window raises the
// server's effective load.
type InducedLoadProfile struct {
	// WindowMS is the trailing accounting window (0 disables induced load).
	WindowMS float64
	// Gain converts window utilization (service ms per window ms) into
	// load-level points.
	Gain float64
}

// Server is one simulated remote DBMS.
type Server struct {
	id         string
	hw         HardwareProfile
	contention ContentionProfile
	maxPlans   int

	mu     sync.RWMutex
	tables map[string]*storage.Table
	load   float64 // background load level in [0,1]
	down   bool
	// failNext, when positive, makes the next executions fail (error
	// injection for reliability experiments).
	failNext int
	// executed counts fragment executions, for tests and reports.
	executed int64

	// planCache is the statement cache (see plancache.go).
	planCache *planCache

	// tel is the observability subsystem (nil/disabled is a no-op).
	tel *telemetry.Telemetry

	// induced-load state: recent service-time samples within the window.
	induced InducedLoadProfile
	clock   *simclock.Clock
	work    []workSample

	// cache-residency state: per-table buffer-pool residency in [0,1].
	// Nil/zero profile means the model is disabled and resident stays empty.
	cache    CacheProfile
	resident map[string]float64
}

// workSample is one completed execution's service time.
type workSample struct {
	at        simclock.Time
	serviceMS float64
}

// NewServer builds a server from config.
func NewServer(cfg Config) *Server {
	if cfg.MaxPlans <= 0 {
		cfg.MaxPlans = 2
	}
	cfg.Cache.fill()
	s := &Server{
		id:         cfg.ID,
		hw:         cfg.Hardware,
		contention: cfg.Contention,
		maxPlans:   cfg.MaxPlans,
		tables:     map[string]*storage.Table{},
		planCache:  newPlanCache(),
		induced:    cfg.InducedLoad,
		cache:      cfg.Cache,
		resident:   map[string]float64{},
	}
	return s
}

// SetTelemetry installs the observability subsystem: statement-cache lookups
// feed per-server hit/miss counters. Nil disables.
func (s *Server) SetTelemetry(t *telemetry.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = t
}

func (s *Server) telemetry() *telemetry.Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tel
}

// SetVectorized does nothing: every server runs the columnar engine.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func (s *Server) SetVectorized(bool) {}

// SetColumnarWire does nothing: every server ships its results on the
// columnar wire.
//
// Deprecated: kept only for the benchmark harness, which still calls it.
func (s *Server) SetColumnarWire(bool) {}

// ID returns the server identifier.
func (s *Server) ID() string { return s.id }

// Hardware returns the hardware profile.
func (s *Server) Hardware() HardwareProfile { return s.hw }

// Config reconstructs the server's configuration — used by the simulated
// federated system to build statistics-only clones.
func (s *Server) Config() Config {
	return Config{ID: s.id, Hardware: s.hw, Contention: s.contention, MaxPlans: s.maxPlans, InducedLoad: s.induced, Cache: s.cache}
}

// AddTable registers a table.
func (s *Server) AddTable(t *storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[t.Name()] = t
}

// Table returns the named table or nil.
func (s *Server) Table(name string) *storage.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

// Tables lists table names, sorted.
func (s *Server) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetLoadLevel sets the background load in [0,1] (clamped). The paper's
// experiments drive this with a heavy update workload; experiments here may
// also set it directly.
func (s *Server) SetLoadLevel(load float64) {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.load = load
}

// LoadLevel returns the current background load (excluding induced load).
func (s *Server) LoadLevel() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.load
}

// SetClock attaches the virtual clock; required for induced-load accounting.
func (s *Server) SetClock(c *simclock.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = c
}

// EffectiveLoad returns background load plus query-induced load, clamped to
// [0,1]. Without a clock or an induced-load profile it equals LoadLevel.
func (s *Server) EffectiveLoad() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effectiveLoadLocked()
}

func (s *Server) effectiveLoadLocked() float64 {
	load := s.load
	if s.induced.WindowMS > 0 && s.clock != nil {
		now := s.clock.Now()
		cut := 0
		for cut < len(s.work) && float64(now-s.work[cut].at) > s.induced.WindowMS {
			cut++
		}
		if cut > 0 {
			s.work = s.work[cut:]
		}
		var sum float64
		for _, w := range s.work {
			sum += w.serviceMS
		}
		load += s.induced.Gain * sum / s.induced.WindowMS
	}
	if load > 1 {
		load = 1
	}
	return load
}

// recordWork notes a completed execution's service time for induced load.
func (s *Server) recordWork(serviceMS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.induced.WindowMS <= 0 || s.clock == nil {
		return
	}
	s.work = append(s.work, workSample{at: s.clock.Now(), serviceMS: serviceMS})
}

// SetDown marks the server unavailable; executions and probes fail.
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

// Down reports whether the server is unavailable.
func (s *Server) Down() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.down
}

// InjectFailures makes the next n executions return ErrServerFailure,
// without marking the server down — a flaky source (§3.3's reliability).
func (s *Server) InjectFailures(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = n
}

// Executed returns the number of fragment executions served.
func (s *Server) Executed() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.executed
}

// ErrServerDown reports an unavailable server.
type ErrServerDown struct{ ID string }

// Error implements error.
func (e *ErrServerDown) Error() string { return fmt.Sprintf("remote: server %s is down", e.ID) }

// ErrServerFailure reports a transient execution failure.
type ErrServerFailure struct{ ID string }

// Error implements error.
func (e *ErrServerFailure) Error() string {
	return fmt.Sprintf("remote: server %s failed to execute fragment", e.ID)
}

// serviceTime converts consumed resources into simulated milliseconds under
// the given load level.
func (s *Server) serviceTime(res exec.Resources, load float64) simclock.Time {
	return s.serviceTimeSpill(res, load, 0, 0)
}

// serviceTimeSpill is serviceTime with the cache-residency model's two
// adjustments: extraSpill is the cold-table penalty (cache-friendly touches
// of non-resident tables fall through to random IO, on top of churn) and
// ioWarm is the warm-table bonus (a resident table serves that fraction of
// its sequential IO from the buffer pool). Both are zero outside
// ObserveAccess, so servers without a CacheProfile are untouched.
func (s *Server) serviceTimeSpill(res exec.Resources, load, extraSpill, ioWarm float64) simclock.Time {
	hw, c := s.hw, s.contention
	cpuRate := hw.CPUOpsPerMS / (1 + load*c.CPU)
	ioRate := hw.IOPagesPerMS / (1 + load*c.IO)
	// Cache-friendly page touches split between the buffer pool and random
	// IO. The baseline miss fraction is a known hardware property; the
	// update-load churn on top of it is NOT visible to any optimizer.
	spill := hw.CacheMissFrac + load*c.BufferChurn + extraSpill
	if spill > 1 {
		spill = 1
	}
	if ioWarm < 0 {
		ioWarm = 0
	} else if ioWarm > 1 {
		ioWarm = 1
	}
	t := hw.FixedOverheadMS
	if cpuRate > 0 {
		t += res.CPUOps / cpuRate
	}
	if ioRate > 0 {
		t += res.IOPages * (1 - ioWarm) / ioRate
	}
	if hw.CachedPagesPerMS > 0 {
		t += res.IOPages * ioWarm / hw.CachedPagesPerMS
	}
	if hw.CachedPagesPerMS > 0 {
		t += res.CachedPages * (1 - spill) / hw.CachedPagesPerMS
	}
	if ioRate > 0 {
		t += res.CachedPages * spill / ioRate
	}
	t *= 1 + load*c.QueueAmp
	return simclock.Time(t)
}

// EstimateTime is the optimizer-visible cost of consuming the given
// resources: the same formulas with zero load. It is expressed in the same
// millisecond units as observed service time so that, in a calm system, the
// calibration factor is ≈ 1.
func (s *Server) EstimateTime(res exec.Resources) float64 {
	return float64(s.serviceTime(res, 0))
}

// firstTuple is the share of a total service time spent before the first
// tuple, on the first/next-tuple model: the fixed overhead and a tenth of the
// rest, within [0, total]. An estimate's total is at least the overhead, so
// the bounds bind only for an observed time.
func (s *Server) firstTuple(total float64) float64 {
	return max(min(s.hw.FixedOverheadMS+0.1*(total-s.hw.FixedOverheadMS), total), 0)
}

// Observe converts resources into observed service time at the CURRENT
// effective load (background + induced) and accounts the work toward future
// induced load.
func (s *Server) Observe(res exec.Resources) simclock.Time {
	t := s.serviceTime(res, s.EffectiveLoad())
	s.recordWork(float64(t))
	return t
}

// ObserveAccess is Observe plus the cache-residency model: the execution's
// cache-friendly page touches pay an extra spill fraction proportional to how
// cold the touched tables are, the touched tables warm toward full residency,
// and every other table cools (buffer churn). With a zero CacheProfile it is
// exactly Observe — no extra spill, no residency state mutated — preserving
// bit-identity for residency-less configurations.
func (s *Server) ObserveAccess(res exec.Resources, tables []string) simclock.Time {
	if s.cache.ColdMissFrac <= 0 || len(tables) == 0 {
		return s.Observe(res)
	}
	s.mu.Lock()
	load := s.effectiveLoadLocked()
	var sum float64
	for _, tbl := range tables {
		sum += s.resident[tbl]
	}
	cold := 1 - sum/float64(len(tables))
	// Warm the touched tables, cool the rest.
	touched := map[string]bool{}
	for _, tbl := range tables {
		touched[tbl] = true
		r := s.resident[tbl]
		s.resident[tbl] = r + (1-r)*s.cache.WarmRate
	}
	for tbl, r := range s.resident {
		if !touched[tbl] {
			s.resident[tbl] = r * (1 - s.cache.CoolRate)
		}
	}
	// Capacity: the pool holds at most PoolTables table-equivalents; excess
	// residency evicts every table proportionally. The total is summed in
	// table-name order: summed in map order it differed in the last bit from
	// run to run, and so did the response times.
	names := make([]string, 0, len(s.resident))
	for tbl := range s.resident {
		names = append(names, tbl)
	}
	sort.Strings(names)
	var total float64
	for _, tbl := range names {
		total += s.resident[tbl]
	}
	if total > s.cache.PoolTables {
		scale := s.cache.PoolTables / total
		for tbl, r := range s.resident {
			s.resident[tbl] = r * scale
		}
	}
	s.mu.Unlock()
	// Cold tables push cache-friendly touches to random IO; warm tables
	// serve the symmetric fraction of their sequential IO from the pool.
	t := s.serviceTimeSpill(res, load, s.cache.ColdMissFrac*cold, s.cache.ColdMissFrac*(1-cold))
	s.recordWork(float64(t))
	return t
}

// CacheResidency reports the buffer-pool residency estimate for a table in
// [0,1]. With the cache model disabled (or the table never touched) it
// returns 0 — a uniform, non-discriminating signal.
func (s *Server) CacheResidency(table string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resident[table]
}
