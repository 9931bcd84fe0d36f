package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// MaxSeries caps distinct (name, label) series in a registry. Per-server
// instruments dominate cardinality; with a handful of metric names the cap
// admits federations of well over a hundred servers before dropping.
const MaxSeries = 512

// DefBuckets are the default fixed histogram bucket upper bounds, in
// simulated milliseconds, covering probe RTTs through heavily-loaded
// fragment times. A final +Inf bucket is implicit.
var DefBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Counter is a monotonically increasing metric. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last recorded value (0 before the first Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Nil-safe.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds; final +Inf implicit
	counts  []int64   // len(bounds)+1
	sum     float64
	samples int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.samples == 0 {
		return 0
	}
	return h.sum / float64(h.samples)
}

// Buckets snapshots (upper bound, count) pairs; the final pair's bound is
// +Inf.
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]BucketCount, len(h.counts))
	for i, c := range h.counts {
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out[i] = BucketCount{UpperBound: bound, Count: c}
	}
	return out
}

// BucketCount is one histogram bucket snapshot.
type BucketCount struct {
	UpperBound float64
	Count      int64
}

// seriesKey identifies one (metric, label) series.
type seriesKey struct {
	name  string
	label string
}

// Registry hands out named instruments, optionally labelled (by convention
// the label is a server ID; "" for federation-wide series). Cardinality is
// capped: once MaxSeries distinct series exist, further NEW series are
// dropped — the returned instrument is nil (whose methods no-op) and the
// drop counter rises, so the cap never fails a query path but never hides
// that it clipped. All methods are nil-safe.
type Registry struct {
	mu         sync.Mutex
	counters   map[seriesKey]*Counter
	gauges     map[seriesKey]*Gauge
	histograms map[seriesKey]*Histogram
	dropped    atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[seriesKey]*Counter{},
		gauges:     map[seriesKey]*Gauge{},
		histograms: map[seriesKey]*Histogram{},
	}
}

// seriesLen must be called with r.mu held.
func (r *Registry) seriesLen() int {
	return len(r.counters) + len(r.gauges) + len(r.histograms)
}

// admit reports whether a NEW series may be created; on refusal it counts
// the drop. Must be called with r.mu held.
func (r *Registry) admit() bool {
	if r.seriesLen() >= MaxSeries {
		r.dropped.Add(1)
		return false
	}
	return true
}

// Counter returns the named counter series, creating it on first use.
// Returns nil (a no-op instrument) when the series cap is hit or the
// registry is nil.
func (r *Registry) Counter(name, label string) *Counter {
	if r == nil {
		return nil
	}
	k := seriesKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	if !r.admit() {
		return nil
	}
	c := &Counter{}
	r.counters[k] = c
	return c
}

// Gauge returns the named gauge series, creating it on first use. Nil on
// cap/nil registry.
func (r *Registry) Gauge(name, label string) *Gauge {
	if r == nil {
		return nil
	}
	k := seriesKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	if !r.admit() {
		return nil
	}
	g := &Gauge{}
	r.gauges[k] = g
	return g
}

// Histogram returns the named histogram series, creating it on first use
// with the given bucket bounds (nil selects DefBuckets). Nil on cap/nil
// registry.
func (r *Registry) Histogram(name, label string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	k := seriesKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[k]; ok {
		return h
	}
	if !r.admit() {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	h := &Histogram{bounds: buckets, counts: make([]int64, len(buckets)+1)}
	r.histograms[k] = h
	return h
}

// CounterValue reads a counter series without creating it.
func (r *Registry) CounterValue(name, label string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[seriesKey{name, label}]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue reads a gauge series without creating it; ok is false when the
// series does not exist.
func (r *Registry) GaugeValue(name, label string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	g, ok := r.gauges[seriesKey{name, label}]
	r.mu.Unlock()
	return g.Value(), ok
}

// HistogramOf reads a histogram series without creating it (nil when
// absent).
func (r *Registry) HistogramOf(name, label string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histograms[seriesKey{name, label}]
}

// DroppedSeries returns how many series creations the cardinality cap has
// refused.
func (r *Registry) DroppedSeries() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// MetricSnapshot is one series in a registry dump.
type MetricSnapshot struct {
	Name  string
	Label string
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Value is the counter count or gauge value; for histograms the sample
	// mean.
	Value float64
	// Count and Sum are histogram-only.
	Count int64
	Sum   float64
	// Buckets are histogram-only (upper bound, cumulative-free count) pairs.
	Buckets []BucketCount
}

// Snapshot dumps every series, sorted by (name, label).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]MetricSnapshot, 0, r.seriesLen())
	for k, c := range r.counters {
		out = append(out, MetricSnapshot{Name: k.name, Label: k.label, Kind: "counter", Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: k.name, Label: k.label, Kind: "gauge", Value: g.Value()})
	}
	hists := make(map[seriesKey]*Histogram, len(r.histograms))
	for k, h := range r.histograms {
		hists[k] = h
	}
	r.mu.Unlock()
	for k, h := range hists {
		out = append(out, MetricSnapshot{
			Name: k.name, Label: k.label, Kind: "histogram",
			Value: h.Mean(), Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}
