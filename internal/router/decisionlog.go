package router

import (
	"sync"

	"repro/internal/simclock"
)

// Decision is one recorded routing decision: which plan/route a policy
// chose and why. Every mode of the Router and the federation's ship-mode
// recorder feed the same log, so \route shows one merged history.
type Decision struct {
	// At is the virtual time of the decision.
	At simclock.Time
	// Query is the federated statement text ("" for dispatch-time entries).
	Query string
	// Policy names the deciding policy: "lb" or "weighted".
	Policy string
	// Route is the chosen route key (fragment→server assignments).
	Route string
	// Reason explains the choice (rotation position, score breakdown, ...).
	Reason string
}

// DecisionLog is a bounded ring of routing decisions. All methods are safe
// for concurrent use and nil-safe: a nil log records nothing and returns
// nothing, so policies need no guards.
type DecisionLog struct {
	mu    sync.Mutex
	buf   []Decision
	next  int
	total int64
}

// DefaultDecisionCap is the default ring capacity.
const DefaultDecisionCap = 64

// NewDecisionLog builds a log keeping the last n decisions (n<=0 selects
// DefaultDecisionCap).
func NewDecisionLog(n int) *DecisionLog {
	if n <= 0 {
		n = DefaultDecisionCap
	}
	return &DecisionLog{buf: make([]Decision, 0, n)}
}

// Record appends a decision, evicting the oldest at capacity.
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, d)
		return
	}
	l.buf[l.next] = d
	l.next = (l.next + 1) % cap(l.buf)
}

// Last returns up to n most recent decisions, oldest first. n<=0 returns
// everything retained.
func (l *DecisionLog) Last(n int) []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		out = append(out, l.buf...)
	} else {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Total reports how many decisions have ever been recorded.
func (l *DecisionLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
