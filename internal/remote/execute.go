package remote

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
)

// Result is the outcome of executing a plan at the server.
type Result struct {
	// Rel is the materialized fragment result. Nil when the columnar wire
	// protocol carried the result: then Col is authoritative and no row form
	// was ever boxed on the server.
	Rel *sqltypes.Relation
	// Col is the columnar form of the same result when the server executed
	// vectorized; nil on the row engine. Col.ToRelation() row-equals Rel.
	Col *colbatch.Batch
	// ServiceTime is the simulated time the server spent, including load
	// effects and queueing — the "observed cost" QCC learns from.
	ServiceTime simclock.Time
}

// RowCount returns the result cardinality regardless of which form (rows or
// columns) carries it.
func (r *Result) RowCount() int {
	if r.Rel != nil {
		return len(r.Rel.Rows)
	}
	if r.Col != nil {
		return r.Col.Len()
	}
	return 0
}

// runPlan is OpenPlan's execution body: it fails when the context is cancelled, when the server is down, when failure
// injection is armed, or when the plan is bound to a different server, then
// executes the plan and observes its full service time under current load.
// wire selects the columnar wire protocol: the result then stays columnar
// (Rel nil) and is never boxed into rows on the server.
func (s *Server) runPlan(ctx context.Context, p *Plan, wire bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.ServerID != s.id {
		return nil, fmt.Errorf("remote: plan bound to %s executed on %s", p.ServerID, s.id)
	}
	if s.Down() {
		return nil, &ErrServerDown{ID: s.id}
	}
	s.mu.Lock()
	if s.failNext > 0 {
		s.failNext--
		s.mu.Unlock()
		return nil, &ErrServerFailure{ID: s.id}
	}
	s.executed++
	s.mu.Unlock()

	ectx := &exec.Context{}
	if s.vectorized.Load() {
		col, err := exec.ExecuteVectorized(p.Root, ectx)
		if err != nil {
			return nil, fmt.Errorf("remote: executing on %s: %w", s.id, err)
		}
		// WireSize equals the materialized relation's ByteSize, so the load
		// model and every downstream network draw observe identical bytes.
		ectx.Res.OutBytes = col.WireSize()
		tel := s.telemetry()
		tel.Active().Counter("exec.vectorized", s.id).Inc()
		tel.Active().Histogram("exec.batch_rows", s.id, nil).Observe(float64(col.Len()))
		res := &Result{
			Col:         col,
			ServiceTime: s.ObserveAccess(ectx.Res, p.Tables),
		}
		if !wire {
			res.Rel = col.ToRelation()
		}
		return res, nil
	}
	rel, err := p.Root.Execute(ectx)
	if err != nil {
		return nil, fmt.Errorf("remote: executing on %s: %w", s.id, err)
	}
	ectx.Res.OutBytes = rel.ByteSize()
	return &Result{
		Rel:         rel,
		ServiceTime: s.ObserveAccess(ectx.Res, p.Tables),
	}, nil
}

// Probe performs the availability daemon's lightweight health check. It
// touches the catalog only; the returned time reflects current queueing.
func (s *Server) Probe(ctx context.Context) (simclock.Time, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.Down() {
		return 0, &ErrServerDown{ID: s.id}
	}
	res := exec.Resources{CPUOps: 10, CachedPages: 2}
	return s.Observe(res), nil
}

// ApplyUpdateBurst mutates n randomly-chosen rows of the named table
// (seeded), dirtying pages and drifting statistics — the paper's "servers
// are hit with a heavy update load" made concrete. It does not by itself
// change the load level; callers combine it with SetLoadLevel.
func (s *Server) ApplyUpdateBurst(table string, n int, seed int64) error {
	tab := s.Table(table)
	if tab == nil {
		return fmt.Errorf("remote: server %s has no table %q", s.id, table)
	}
	v := tab.View()
	rows := v.RowCount()
	v.Close() // UpdateAt below would wait on an open view forever
	if rows == 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	numeric := -1
	for i, c := range tab.Schema().Columns {
		if c.Type == sqltypes.KindFloat {
			numeric = i
			break
		}
	}
	if numeric < 0 {
		for i, c := range tab.Schema().Columns {
			if c.Type == sqltypes.KindInt && i > 0 {
				numeric = i
				break
			}
		}
	}
	if numeric < 0 {
		return fmt.Errorf("remote: table %q has no updatable column", table)
	}
	kind := tab.Schema().Columns[numeric].Type
	for i := 0; i < n; i++ {
		row := r.Intn(rows)
		var v sqltypes.Value
		if kind == sqltypes.KindFloat {
			v = sqltypes.NewFloat(r.Float64() * 10000)
		} else {
			v = sqltypes.NewInt(r.Int63n(10000))
		}
		if err := tab.UpdateAt(row, numeric, v); err != nil {
			return err
		}
	}
	return nil
}
