// Package ring is the tree's one bounded-retention mechanism and the one
// place the shared bounds are written down.
//
// Rings: the journal's sequences, the telemetry trace ring and calibration
// timeline (bounds below), and QCC's sample windows — each calibration
// history (64 samples, cut further by age with Drop), each server's
// reliability outcomes (50) and the recalibration cycle's interval history
// (Entries); QCC keeps its two window sizes beside the formulas they feed.
//
// Not rings, on purpose: the integrator's federated plan cache and the
// remote statement cache are LRU caches — a hit must move an entry to the
// front, which a FIFO cannot do; the router's rotation map is keyed by
// statement text and evicts the set derived longest ago, not the oldest
// insert; and a remote server's induced-load window is bounded by virtual
// time, not count — its load is the service time summed over the trailing
// window, so a count bound would change the number.
package ring

import "sync"

// The retention bounds. None is configurable.
const (
	// Entries bounds each journal sequence except the route decisions, the
	// telemetry calibration timeline and QCC's recalibration intervals.
	Entries = 4096
	// Decisions bounds the journal's route decisions: a recent-history view.
	Decisions = 64
	// Traces bounds the telemetry trace ring.
	Traces = 256
)

// Ring keeps the newest values pushed into it, up to a fixed bound, oldest
// evicted first. Its backing array grows on demand (doubling, never past the
// bound) and is never preallocated, so a store that sees ten values costs ten
// slots whatever its bound; once at the bound a push overwrites the oldest
// slot in place. A Ring is not safe for concurrent use; its owner serializes
// access.
type Ring[T any] struct {
	buf   []T
	head  int // position in buf of the oldest retained value
	n     int // retained values
	bound int
	total int64 // values ever pushed
}

// New returns an empty ring retaining at most bound values.
func New[T any](bound int) *Ring[T] {
	if bound < 1 {
		panic("ring: bound must be positive")
	}
	return &Ring[T]{bound: bound}
}

// Push appends v, evicting the oldest value once the ring is at its bound.
func (r *Ring[T]) Push(v T) {
	r.total++
	if r.n == r.bound {
		r.buf[r.head] = v
		r.head = (r.head + 1) % r.bound
		return
	}
	if r.n == len(r.buf) {
		grown := make([]T, min(r.bound, max(8, 2*len(r.buf))))
		for i := range grown[:r.n] {
			grown[i] = *r.At(i)
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return r.n }

// Total returns how many values were ever pushed.
func (r *Ring[T]) Total() int64 { return r.total }

// Evicted returns how many values the bound has dropped.
func (r *Ring[T]) Evicted() int64 { return r.total - int64(r.n) }

// At returns the i-th oldest retained value (0 <= i < Len) in place.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// Drop discards the k oldest retained values (all of them when k >= Len);
// they count as evicted.
func (r *Ring[T]) Drop(k int) {
	k = min(k, r.n)
	if k <= 0 {
		return
	}
	var zero T
	for i := range k {
		*r.At(i) = zero
	}
	r.head = (r.head + k) % len(r.buf)
	r.n -= k
}

// Tail returns a copy of the newest n retained values, oldest first; n <= 0
// or n > Len returns all of them. An empty ring returns nil.
func (r *Ring[T]) Tail(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = *r.At(r.n - n + i)
	}
	return out
}

// Log is a Ring behind a mutex: a bounded append-only sequence safe for
// concurrent use. A nil *Log is empty and discards what it is given.
type Log[T any] struct {
	mu sync.Mutex
	r  Ring[T]
}

// NewLog returns an empty log retaining at most bound values.
func NewLog[T any](bound int) *Log[T] { return &Log[T]{r: *New[T](bound)} }

// Add appends v, evicting the oldest value at the bound.
func (l *Log[T]) Add(v T) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.r.Push(v)
	l.mu.Unlock()
}

// Tail snapshots the newest n values, oldest first (all of them when n <= 0).
func (l *Log[T]) Tail(n int) []T {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Tail(n)
}

// Select snapshots the retained values keep accepts, oldest first.
func (l *Log[T]) Select(keep func(*T) bool) []T {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []T
	for i := 0; i < l.r.Len(); i++ {
		if v := l.r.At(i); keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

// Len returns the number of retained values.
func (l *Log[T]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Len()
}

// Evicted returns how many values the bound has dropped.
func (l *Log[T]) Evicted() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Evicted()
}

// Total returns how many values were ever added.
func (l *Log[T]) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Total()
}
