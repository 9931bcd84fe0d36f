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
	// Rel is always nil: every batch travels as columns (Col, measured by
	// Enc). It stays only because the benchmark harness still reads it.
	Rel *sqltypes.Relation
	// Col is the batch's rows: a columnar view into the full result.
	Col *colbatch.Batch
	// Enc measures the batch in wire form (colbatch.Measure: its size and
	// column encodings, no bytes). Its size is what the network link
	// transfers.
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
	res, err := s.runPlan(ctx, p)
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
	// The batch's encoded length is the size every network draw observes.
	// Nothing decodes the bytes, so the batch is measured, not encoded.
	col := c.result.Col.Slice(lo, hi)
	b := &Batch{Col: col, Enc: colbatch.Measure(col), ServiceTime: c.splits[c.pos] - prev}
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
