// Package exec implements the physical operators shared by the remote
// servers' engines and the integrator's local merge layer: scans, filters,
// projections, joins, aggregation, sort, distinct and limit.
//
// Every operator charges its true resource consumption (CPU operations,
// sequential IO pages, and cache-friendly page touches) to the execution
// Context, through its one Charge method (charge.go). The remote server's
// load model converts those resources into simulated response time. The
// optimizer's estimate calls the same Charge with estimated counts, so an
// estimate fed the counts an execution observed is that execution's charge.
// What remains between estimate and observation is cardinality error,
// amplified by load and network conditions: the signal the paper's Query
// Cost Calibrator learns.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/exec/colbatch"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Resources accumulates the resource consumption of an execution.
type Resources struct {
	// CPUOps counts tuple-processing operations (comparisons, hashes,
	// arithmetic) in abstract units.
	CPUOps float64
	// IOPages counts sequential page reads that always hit the disk arm
	// (large scans); insensitive to buffer-pool pressure.
	IOPages float64
	// CachedPages counts page touches that normally hit the buffer pool
	// (index probes, small-table rereads). Under heavy update load these
	// degrade toward real IO — the mechanism behind Figure 9's QT2 collapse.
	CachedPages float64
	// OutBytes is the byte volume of the final result, for the network model.
	OutBytes int
}

// Add accumulates other into r.
func (r *Resources) Add(other Resources) {
	r.CPUOps += other.CPUOps
	r.IOPages += other.IOPages
	r.CachedPages += other.CachedPages
	r.OutBytes += other.OutBytes
}

// String renders the consumption compactly.
func (r Resources) String() string {
	return fmt.Sprintf("cpu=%.0f io=%.0f cached=%.0f out=%dB", r.CPUOps, r.IOPages, r.CachedPages, r.OutBytes)
}

// Context carries per-execution state. Executions are single-goroutine.
type Context struct {
	Res Resources
	// Reads lists, in execution order, the table version each scan, index scan
	// and index join read: what the rows it produced have to be compared with.
	Reads []TableRead
	// readBuf backs Reads up to a plan of four tables, so that recording a
	// read costs a scan no allocation.
	readBuf [4]TableRead
}

// TableRead is one operator's read of a table through one storage view.
type TableRead struct {
	Table   *storage.Table
	Version int64
}

// read records the view an operator reads through.
func (c *Context) read(v storage.View) {
	if c.Reads == nil {
		c.Reads = c.readBuf[:0]
	}
	c.Reads = append(c.Reads, TableRead{Table: v.Table(), Version: v.Version()})
}

// Operator is a physical operator producing a materialized relation.
type Operator interface {
	// Schema returns the output schema without executing.
	Schema() *sqltypes.Schema
	// Execute runs the operator, charging resources to ctx.
	Execute(ctx *Context) (*sqltypes.Relation, error)
	// Explain renders this node (children indented by the caller).
	Explain() string
	// Children returns input operators, for plan display.
	Children() []Operator
}

// ExplainTree renders an operator tree.
func ExplainTree(op Operator) string {
	var b strings.Builder
	explainInto(&b, op, 0)
	return b.String()
}

func explainInto(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(op.Explain())
	b.WriteString("\n")
	for _, c := range op.Children() {
		explainInto(b, c, depth+1)
	}
}

// Values is a leaf operator over an already-materialized relation (the
// integrator's row merge wraps fully arrived fragment results in it).
type Values struct {
	Rel *sqltypes.Relation
	// Col, when non-nil, is the same rows in columnar form (Col.ToRelation()
	// row-equals Rel); ExecuteVectorized uses it directly.
	Col *colbatch.Batch
	// Label names the source in EXPLAIN output.
	Label string
}

// Schema implements Operator.
func (v *Values) Schema() *sqltypes.Schema { return v.Rel.Schema }

// Execute implements Operator.
func (v *Values) Execute(ctx *Context) (*sqltypes.Relation, error) {
	ctx.Res.Add(v.Charge(float64(len(v.Rel.Rows))))
	return v.Rel, nil
}

// Explain implements Operator.
func (v *Values) Explain() string {
	label := v.Label
	if label == "" {
		label = "values"
	}
	return fmt.Sprintf("VALUES %s [%d rows]", label, len(v.Rel.Rows))
}

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }
