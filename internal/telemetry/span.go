package telemetry

import (
	"context"
	"sync"

	"repro/internal/simclock"
)

// Attr is one span annotation.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation in a trace, timestamped on virtual time.
//
// Virtual durations are COMPUTED in this system, not elapsed: a fragment's
// response time is derived and charged to the clock after the fact, so spans
// record their duration explicitly at End (or at emission for
// known-duration children) rather than sampling a clock twice.
//
// Each span keeps a cursor — the virtual offset from its own start at which
// the next sequential child begins. Children created through Child start at
// the current cursor without advancing it (parallel siblings, e.g. the
// fragment fan-out all start when the remote phase starts); children emitted
// through Emit advance it (sequential sub-steps, e.g. network-send →
// remote-exec → network-recv within one dispatch). Advance moves the cursor
// explicitly, e.g. past the parallel remote phase before the merge span.
//
// All methods are safe on a nil *Span and safe for concurrent use, so
// instrumented layers never branch on whether tracing is active.
type Span struct {
	mu       sync.Mutex
	name     string
	layer    Layer
	server   string
	start    simclock.Time
	dur      simclock.Time
	attrs    []Attr
	children []*Span
	cursor   simclock.Time
	ended    bool
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Layer returns the span's architectural layer ("" on nil).
func (s *Span) Layer() Layer {
	if s == nil {
		return ""
	}
	return s.layer
}

// Server returns the server the span is attributed to ("" on nil or for
// II-local work).
func (s *Span) Server() string {
	if s == nil {
		return ""
	}
	return s.server
}

// Start returns the span's virtual start time.
func (s *Span) Start() simclock.Time {
	if s == nil {
		return 0
	}
	return s.start
}

// Dur returns the span's virtual duration (0 until ended).
func (s *Span) Dur() simclock.Time {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Attrs snapshots the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children snapshots the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// SetAttr annotates the span. Nil-safe no-op.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Child opens a child span at the current cursor WITHOUT advancing it:
// siblings created this way run in parallel in virtual time (the fragment
// fan-out). End the child with its computed duration. Nil-safe: a nil
// receiver returns nil.
func (s *Span) Child(name string, layer Layer, server string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Span{name: name, layer: layer, server: server, start: s.start + s.cursor}
	s.children = append(s.children, c)
	return c
}

// Emit appends an already-complete child of known duration at the current
// cursor and advances the cursor past it — the sequential sub-steps of a
// dispatch (queue, network-send, remote-exec, network-recv). Nil-safe.
func (s *Span) Emit(name string, layer Layer, server string, dur simclock.Time) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Span{name: name, layer: layer, server: server, start: s.start + s.cursor, dur: dur, ended: true}
	s.children = append(s.children, c)
	s.cursor += dur
	return c
}

// Advance moves the cursor forward without recording a child — e.g. the II
// root span advances past the parallel remote phase (max fragment time)
// before emitting the merge span. Nil-safe.
func (s *Span) Advance(dur simclock.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursor += dur
}

// End closes the span with its computed virtual duration. Repeated Ends keep
// the first duration. Nil-safe.
func (s *Span) End(dur simclock.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.dur = dur
	s.ended = true
}

// Trace is one query's span tree plus its outcome.
type Trace struct {
	// ID is the query's journal ID: the key its journal entries share.
	ID int64
	// Query is the traced statement text.
	Query string
	// SubmitAt is the virtual submission time.
	SubmitAt simclock.Time
	// Root is the query-level span.
	Root *Span

	mu   sync.Mutex
	done bool
	err  string
}

// Finish marks the trace complete; err may be nil. Nil-safe.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
	if err != nil {
		t.err = err.Error()
	}
}

// Done reports completion; Err is the failure text ("" on success).
func (t *Trace) Done() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Err returns the trace's failure text ("" when successful or in flight).
func (t *Trace) Err() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// spanKey is the context key carrying the active span.
type spanKey struct{}

// ContextWithSpan returns a context carrying the span as the active parent
// for downstream layers. A nil span returns ctx unchanged, so untraced
// queries pay no context allocation.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the active span, or nil when the query is untraced.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
