package remote

import (
	"context"

	"repro/internal/exec"
	"repro/internal/exec/colbatch"
	"repro/internal/simclock"
	"repro/internal/sqltypes"
)

// Batch is one streamed unit of a fragment result.
type Batch struct {
	// Rel holds this batch's rows (a slice view into the full result). Nil
	// when the columnar wire protocol carried the batch: then Col + Enc are
	// authoritative and no rows were boxed.
	Rel *sqltypes.Relation
	// Col is the same rows as a columnar view when the server executed
	// vectorized; nil on the row engine.
	Col *colbatch.Batch
	// Enc measures the batch in wire form (colbatch.Measure: its size and
	// column encodings, no bytes), present only under the columnar wire
	// protocol. Its size is what the network link transfers.
	Enc *colbatch.Encoded
	// ServiceTime is the simulated remote compute time attributable to
	// producing this batch under the first/next-tuple model: the first batch
	// carries the first-tuple cost, later batches their next-tuple share,
	// and the per-batch times sum exactly to the plan's full service time.
	ServiceTime simclock.Time
}

// Cursor streams a plan's result in batches. Execution is simulated, so the
// plan runs to completion at Open and the cursor replays the result on the
// virtual-time first/next-tuple schedule; what the cursor adds is the TIMING
// decomposition the wrapper needs to overlap production with transfer.
type Cursor struct {
	result   *Result
	bounds   []int           // row-index upper bound of each batch
	splits   []simclock.Time // cumulative produce time through each batch
	pos      int
	blocking string
}

// OpenPlan executes a plan and returns a cursor over its result split into
// batches of batchRows rows. batchRows <= 0 — or a plan whose tree contains
// a pipeline-breaking operator (sort, aggregate, distinct) — yields a single
// batch carrying the full service time, which reproduces monolithic
// execution exactly.
func (s *Server) OpenPlan(ctx context.Context, p *Plan, batchRows int) (*Cursor, error) {
	wire := s.wireColumnar.Load() && s.vectorized.Load()
	res, err := s.runPlan(ctx, p, wire)
	if err != nil {
		return nil, err
	}
	cur := &Cursor{result: res, blocking: exec.BlockingStage(p.Root)}
	n := res.RowCount()
	if batchRows <= 0 || cur.blocking != "" || n <= batchRows {
		cur.bounds = []int{n}
		cur.splits = []simclock.Time{res.ServiceTime}
		return cur, nil
	}

	// Telescoping split: cumulative produce time after row h follows the
	// first/next-tuple model c(h) = first + (total-first)·(h-1)/(n-1), with
	// c(n) pinned to the total so the per-batch deltas sum exactly.
	total := float64(res.ServiceTime)
	first := s.firstTuple(total)
	for lo := 0; lo < n; lo += batchRows {
		hi := lo + batchRows
		if hi > n {
			hi = n
		}
		var c float64
		if hi == n {
			c = total
		} else {
			c = first + (total-first)*float64(hi-1)/float64(n-1)
		}
		cur.bounds = append(cur.bounds, hi)
		cur.splits = append(cur.splits, simclock.Time(c))
	}
	return cur, nil
}

// NextBatch returns the next batch, or nil when the cursor is exhausted.
func (c *Cursor) NextBatch() *Batch {
	if c.pos >= len(c.bounds) {
		return nil
	}
	lo, prev := 0, simclock.Time(0)
	if c.pos > 0 {
		lo, prev = c.bounds[c.pos-1], c.splits[c.pos-1]
	}
	hi := c.bounds[c.pos]
	b := &Batch{ServiceTime: c.splits[c.pos] - prev}
	if rel := c.result.Rel; rel != nil {
		if c.pos > 0 || hi < len(rel.Rows) {
			view := sqltypes.NewRelation(rel.Schema)
			view.Rows = rel.Rows[lo:hi]
			rel = view
		}
		b.Rel = rel
	}
	if c.result.Col != nil {
		b.Col = c.result.Col.Slice(lo, hi)
		if c.result.Rel == nil {
			// Columnar wire protocol: the batch's encoded length is the size
			// every network draw observes. Nothing decodes the bytes, so
			// the batch is measured, not encoded.
			b.Enc = colbatch.Measure(b.Col)
		}
	}
	c.pos++
	return b
}

// NumBatches returns how many batches the cursor yields in total.
func (c *Cursor) NumBatches() int { return len(c.bounds) }

// FirstReady returns the service time until the first batch is available —
// the remote-side component of time-to-first-row.
func (c *Cursor) FirstReady() simclock.Time { return c.splits[0] }

// Blocking names the pipeline-breaking stage that forced single-batch
// production ("sort", "aggregate", "distinct"), or "" when the plan
// pipelines.
func (c *Cursor) Blocking() string { return c.blocking }

// Result returns the full materialized result backing the cursor.
func (c *Cursor) Result() *Result { return c.result }
