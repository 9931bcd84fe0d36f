// Package telemetry is the federation's zero-dependency observability
// subsystem: per-query distributed traces timestamped on simclock virtual
// time, a bounded metrics registry (counters, gauges, fixed-bucket
// histograms), and calibration-factor timelines that make the paper's
// central artifact — calibration factor vs. load over time — reproducible
// from a live run.
//
// Everything is nil-safe and compiles to near-zero cost when disabled: a nil
// *Telemetry (or a disabled one) hands out nil traces, nil spans and nil
// instruments, and every method on those is a no-op. Instrumented layers
// therefore never guard their telemetry calls; the zero value of the whole
// subsystem is "off".
//
// Retention is bounded everywhere: traces and timeline samples sit on the
// same ring.Ring as the query journal's sequences, under the bounds written
// down there, and the metrics registry caps label cardinality — each with an
// eviction/drop counter so silent loss is visible.
package telemetry

import (
	"sync/atomic"

	"repro/internal/ring"
	"repro/internal/simclock"
)

// Layer names the architectural layer a span belongs to. The acceptance bar
// for a federated query trace is that all five execution layers appear:
// II, meta-wrapper, wrapper, network and remote.
type Layer string

// The federation's layers, top to bottom.
const (
	LayerII      Layer = "ii"
	LayerMW      Layer = "metawrapper"
	LayerWrapper Layer = "wrapper"
	LayerNetwork Layer = "network"
	LayerRemote  Layer = "remote"
	LayerQCC     Layer = "qcc"
)

// Telemetry bundles the tracer, the metrics registry and the calibration
// timeline store behind one switchable handle.
type Telemetry struct {
	enabled  atomic.Bool
	tracer   *Tracer
	metrics  *Registry
	timeline *TimelineStore
}

// New builds a Telemetry handle with collection DISABLED; SetEnabled(true)
// starts it.
func New() *Telemetry {
	return &Telemetry{
		tracer:   NewTracer(),
		metrics:  NewRegistry(),
		timeline: ring.NewLog[FactorSample](ring.Entries),
	}
}

// Enabled reports whether collection is on. Nil-safe.
func (t *Telemetry) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled switches collection on or off. Disabling stops new traces,
// metric updates and timeline appends but retains everything already
// collected. Nil-safe no-op.
func (t *Telemetry) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Tracer returns the trace ring (always, for inspection). Nil-safe.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Metrics returns the registry (always, for inspection). Nil-safe.
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Timelines returns the calibration timeline store (always, for inspection).
// Nil-safe.
func (t *Telemetry) Timelines() *TimelineStore {
	if t == nil {
		return nil
	}
	return t.timeline
}

// Active returns the registry only while collection is enabled — the fast
// path instrumented layers use, so a disabled subsystem costs one atomic
// load per call site. Nil-safe.
func (t *Telemetry) Active() *Registry {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return t.metrics
}

// StartTrace opens a trace for one query, under its journal ID, when
// collection is enabled, retaining it in the trace ring immediately (an
// in-flight query is observable). Returns nil — and the query runs untraced —
// when disabled.
func (t *Telemetry) StartTrace(id int64, query string, at simclock.Time) *Trace {
	if !t.Enabled() {
		return nil
	}
	return t.tracer.StartTrace(id, query, at)
}

// AppendFactor records one calibration-factor sample when enabled. Nil-safe.
func (t *Telemetry) AppendFactor(at simclock.Time, server string, factor float64) {
	if t.Enabled() {
		t.timeline.Add(FactorSample{At: at, Server: server, Factor: factor})
	}
}
