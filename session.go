package fedqcc

import (
	"context"
	"sync"

	"repro/internal/workload"
)

// QueryContext is Query with caller-supplied cancellation: the context is
// threaded through the integrator, meta-wrapper, wrapper, server and network
// layers, so cancelling it aborts in-flight fragment dispatches.
func (f *Federation) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	res, err := f.ii.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	route := map[string]string{}
	for _, frag := range res.Plan.Fragments {
		route[frag.Spec.ID] = frag.ServerID
	}
	// Runtime rerouting may have moved fragments after compilation.
	for id, s := range res.ExecutedServers {
		route[id] = s
	}
	return &QueryResult{
		ID:             res.ID,
		Rows:           res.Rel,
		ResponseTime:   res.ResponseTime,
		Route:          route,
		FragmentTimes:  res.FragmentTimes,
		MergeTime:      res.MergeTime,
		FirstRowTime:   res.FirstRowTime,
		Retried:        res.Retried,
		QueueWait:      res.QueueWait,
		AdmissionClass: res.AdmissionClass,
		Tenant:         res.Tenant,
	}, nil
}

// Session is a concurrent submission surface over a federation. Many sessions
// (or many goroutines sharing one session) may query simultaneously: the
// engine serializes virtual-time accounting internally, and each session
// keeps its own submission statistics. Sessions hold no exclusive resources
// and need no teardown.
type Session struct {
	fed *Federation

	mu            sync.Mutex
	submitted     int
	completed     int
	failed        int
	totalResponse Time
	maxResponse   Time
}

// NewSession opens a submission surface on the federation.
func (f *Federation) NewSession() *Session { return &Session{fed: f} }

// Query runs one federated statement through the session.
func (s *Session) Query(sql string) (*QueryResult, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext runs one federated statement with caller-supplied
// cancellation.
func (s *Session) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	s.mu.Lock()
	s.submitted++
	s.mu.Unlock()
	res, err := s.fed.QueryContext(ctx, sql)
	s.mu.Lock()
	if err != nil {
		s.failed++
	} else {
		s.completed++
		s.totalResponse += res.ResponseTime
		if res.ResponseTime > s.maxResponse {
			s.maxResponse = res.ResponseTime
		}
	}
	s.mu.Unlock()
	return res, err
}

// AsyncResult is a handle on an in-flight QueryAsync submission.
type AsyncResult struct {
	done chan struct{}
	res  *QueryResult
	err  error
}

// Done is closed when the query finishes; select on it alongside other work.
func (a *AsyncResult) Done() <-chan struct{} { return a.done }

// Wait blocks until the query finishes and returns its outcome. It is safe
// to call from multiple goroutines and after completion.
func (a *AsyncResult) Wait() (*QueryResult, error) {
	<-a.done
	return a.res, a.err
}

// QueryAsync submits a statement without blocking and returns a handle the
// caller can Wait on. Cancelling ctx aborts the in-flight query.
func (s *Session) QueryAsync(ctx context.Context, sql string) *AsyncResult {
	a := &AsyncResult{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.res, a.err = s.QueryContext(ctx, sql)
	}()
	return a
}

// SessionStats summarizes a session's submissions so far.
type SessionStats struct {
	Submitted     int
	Completed     int
	Failed        int
	TotalResponse Time
	MaxResponse   Time
}

// PlanCacheStats snapshots the federation's plan cache counters — the cache
// is shared across sessions, so this mirrors Federation.PlanCacheStats.
func (s *Session) PlanCacheStats() PlanCacheStats { return s.fed.PlanCacheStats() }

// Telemetry returns the federation's observability subsystem — shared across
// sessions, so this mirrors Federation.Telemetry.
func (s *Session) Telemetry() *Telemetry { return s.fed.Telemetry() }

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Submitted:     s.submitted,
		Completed:     s.completed,
		Failed:        s.failed,
		TotalResponse: s.totalResponse,
		MaxResponse:   s.maxResponse,
	}
}

// RunConcurrent executes the statements through a bounded worker pool of
// concurrent sessions and returns results and errors indexed by submission
// position, so concurrent runs compare row-for-row against sequential ones.
// workers <= 1 degenerates to sequential execution.
func (f *Federation) RunConcurrent(ctx context.Context, sqls []string, workers int) ([]*QueryResult, []error) {
	items := make([]workload.Item, len(sqls))
	for i, q := range sqls {
		items[i] = workload.Item{SQL: q}
	}
	results := make([]*QueryResult, len(sqls))
	errs := make([]error, len(sqls))
	sess := f.NewSession()
	pooled, _ := workload.RunPool(ctx, workers, items, func(ctx context.Context, idx int, it workload.Item) (Time, error) {
		res, err := sess.QueryContext(ctx, it.SQL)
		if err != nil {
			return 0, err
		}
		results[idx] = res
		return res.ResponseTime, nil
	})
	for _, p := range pooled {
		if p.Skipped {
			errs[p.Index] = context.Canceled
			continue
		}
		errs[p.Index] = p.Err
	}
	return results, errs
}
