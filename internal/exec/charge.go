package exec

import "math"

// The cost model: what each operator charges, written once. Every Charge
// takes the counts its formula reads. The row kernels and the columnar
// kernels call it with what they counted and add the result to the Context
// once per call; the remote estimator calls it with what it estimated. So on
// a calm server an estimate and an observation differ only where the counts
// do. Outside this file only Resources.Add writes CPUOps, IOPages or
// CachedPages (TestChargesAreWrittenOnce).

// Charge is what a Values leaf costs: one CPU op per row (cursor iteration)
// and no IO, since the data is already local.
func (v *Values) Charge(rows float64) Resources { return Resources{CPUOps: rows} }

// Charge is what a BatchStream costs: one CPU op per row, like Values.
func (s *BatchStream) Charge(rows float64) Resources { return Resources{CPUOps: rows} }

// Charge is what a SeqScan costs: the table's pages as sequential IO, which
// large scans stream from disk whatever the buffer pool holds, and one CPU op
// per row.
func (s *SeqScan) Charge(pages, rows float64) Resources {
	return Resources{IOPages: pages, CPUOps: rows}
}

// Charge is what an IndexScan costs: one descent of an index holding entries
// (non-NULL) entries, and one buffer-pool page touch and one CPU op per
// fetched row (random access gets no sequential-scan batching).
func (s *IndexScan) Charge(entries, fetches float64) Resources {
	descent := indexDescent(entries)
	return Resources{CachedPages: descent + fetches, CPUOps: descent + fetches}
}

// Charge is what an IndexNLJoin costs: every probe descends an index holding
// entries entries, and every match fetched, before the residual, is one
// more page touch and CPU op. NULL outer keys do not probe.
func (j *IndexNLJoin) Charge(entries, probes, fetches float64) Resources {
	descent := indexDescent(entries)
	return Resources{CachedPages: probes*descent + fetches, CPUOps: probes*(descent+1) + fetches}
}

// indexDescent is one probe of an index of n entries: ~log2 of n, quartered.
func indexDescent(n float64) float64 {
	descent := 1.0
	if n > 2 {
		descent += math.Log2(n) / 4
	}
	return descent
}

// Charge is what a Filter costs: one CPU op per input row.
func (f *Filter) Charge(rows float64) Resources { return Resources{CPUOps: rows} }

// Charge is what a Project costs: one CPU op per input row and select item.
func (p *Project) Charge(rows float64) Resources {
	return Resources{CPUOps: rows * float64(len(p.Items))}
}

// Charge is what a HashJoin costs: two CPU ops per hashed row and per
// streamed row, one per output row. The sum is the same in every bit
// whichever input is named first, so a caller that knows only Build and
// Probe may pass them in that order.
func (j *HashJoin) Charge(hashed, streamed, out float64) Resources {
	return Resources{CPUOps: 2*hashed + 2*streamed + out}
}

// Charge is what a NestedLoopJoin costs: one CPU op per candidate pair.
func (j *NestedLoopJoin) Charge(outer, inner float64) Resources {
	return Resources{CPUOps: outer * inner}
}

// Charge is what an Aggregate costs: per input row, one CPU op for the cursor
// and one per aggregate.
func (a *Aggregate) Charge(rows float64) Resources {
	return Resources{CPUOps: rows * float64(1+len(a.Aggs))}
}

// Charge is what a ShardAggFinal costs: per partial row, one CPU op for the
// cursor and one per aggregate, like Aggregate.
func (s *ShardAggFinal) Charge(rows float64) Resources {
	return Resources{CPUOps: rows * float64(1+len(s.Aggs))}
}

// Charge is what a Sort costs: n·⌈log2 n⌉ CPU ops for n rows, and n below
// two rows.
func (s *Sort) Charge(rows float64) Resources {
	l := 1.0
	for m := rows; m > 2; m /= 2 {
		l++
	}
	return Resources{CPUOps: rows * l}
}

// Charge is what a Distinct costs: two CPU ops per input row.
func (d *Distinct) Charge(rows float64) Resources { return Resources{CPUOps: rows * 2} }
