package telemetry

import (
	"repro/internal/ring"
	"repro/internal/simclock"
)

// Tracer retains the most recent ring.Traces traces, evicting oldest first.
// Evictions are counted so silent drops are visible. All methods are nil-safe.
type Tracer struct {
	traces *ring.Log[*Trace]
}

// NewTracer builds an empty tracer.
func NewTracer() *Tracer { return &Tracer{traces: ring.NewLog[*Trace](ring.Traces)} }

// StartTrace opens and retains a trace under the query's journal ID. The
// root span starts at the submission time with the query-level name.
func (tr *Tracer) StartTrace(id int64, query string, at simclock.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{
		ID:       id,
		Query:    query,
		SubmitAt: at,
		Root:     &Span{name: "query", layer: LayerII, start: at},
	}
	tr.traces.Add(t)
	return t
}

// FinishTrace marks the trace done.
func (tr *Tracer) FinishTrace(t *Trace, err error) {
	if tr == nil || t == nil {
		return
	}
	t.Finish(err)
}

// log is the trace ring, nil for a nil tracer (a nil log is empty).
func (tr *Tracer) log() *ring.Log[*Trace] {
	if tr == nil {
		return nil
	}
	return tr.traces
}

// Traces snapshots the retained traces, oldest first.
func (tr *Tracer) Traces() []*Trace { return tr.log().Tail(0) }

// Last returns the most recently started trace, or nil.
func (tr *Tracer) Last() *Trace {
	if last := tr.log().Tail(1); len(last) == 1 {
		return last[0]
	}
	return nil
}

// Trace returns the retained trace of the query with the given journal ID,
// or nil.
func (tr *Tracer) Trace(id int64) *Trace {
	if found := tr.log().Select(func(t **Trace) bool { return (*t).ID == id }); len(found) > 0 {
		return found[len(found)-1]
	}
	return nil
}

// Len returns the number of retained traces.
func (tr *Tracer) Len() int { return tr.log().Len() }

// Evicted returns how many traces the retention bound has dropped.
func (tr *Tracer) Evicted() int64 { return tr.log().Evicted() }
