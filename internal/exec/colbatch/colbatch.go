// Package colbatch provides the columnar batch representation used by the
// vectorized execution path: one typed vector per attribute plus a null
// bitmap, and an optional selection vector so filters can pass rows along
// without materializing them. Batches convert losslessly to and from
// sqltypes.Relation — Value fields are unexported, so every value in a
// relation was built by a sqltypes constructor and decomposing it into
// (kind, payload, null) and rebuilding is exact. That round trip is what
// lets the vectorized path stay bit-identical to the row-at-a-time oracle.
package colbatch

import (
	"math"

	"repro/internal/sqltypes"
)

// Column is one attribute's vector. Exactly one representation is active:
//
//   - Mixed non-nil: the column was not kind-uniform; Mixed holds the cells
//     verbatim and the typed slices are nil.
//   - otherwise Kind selects the typed payload slice (Ints/Floats/Strs/
//     Bools), with Nulls[i] marking SQL NULL cells (payload zero). Kind ==
//     KindNull means every cell is NULL and no payload slice is allocated.
//
// Indices into a Column are PHYSICAL positions; Batch applies its selection
// vector before indexing.
type Column struct {
	Kind   sqltypes.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
	Mixed  []sqltypes.Value
}

// Value reconstructs the cell at physical index i.
func (c *Column) Value(i int) sqltypes.Value {
	if c.Mixed != nil {
		return c.Mixed[i]
	}
	if c.Nulls != nil && c.Nulls[i] {
		return sqltypes.Null
	}
	switch c.Kind {
	case sqltypes.KindInt:
		return sqltypes.NewInt(c.Ints[i])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(c.Floats[i])
	case sqltypes.KindString:
		return sqltypes.NewString(c.Strs[i])
	case sqltypes.KindBool:
		return sqltypes.NewBool(c.Bools[i])
	default:
		return sqltypes.Null
	}
}

// IsNull reports whether the cell at physical index i is SQL NULL.
func (c *Column) IsNull(i int) bool {
	if c.Mixed != nil {
		return c.Mixed[i].IsNull()
	}
	if c.Kind == sqltypes.KindNull {
		return true
	}
	return c.Nulls != nil && c.Nulls[i]
}

// Gather materializes a new column holding the cells at the given physical
// indices, in order.
func (c *Column) Gather(idx []int32) *Column {
	var s slabs
	s.reserve(c, len(idx))
	s.alloc()
	out := &Column{}
	s.cut(out, c, len(idx))
	out.fill(0, c, idx)
	return out
}

// Slice returns a header over cells [lo, hi) of c: the same vectors, capped
// at hi, no cell copied.
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Kind: c.Kind}
	if c.Mixed != nil {
		out.Mixed = c.Mixed[lo:hi:hi]
		return out
	}
	if c.Nulls != nil {
		out.Nulls = c.Nulls[lo:hi:hi]
	}
	switch c.Kind {
	case sqltypes.KindInt:
		out.Ints = c.Ints[lo:hi:hi]
	case sqltypes.KindFloat:
		out.Floats = c.Floats[lo:hi:hi]
	case sqltypes.KindString:
		out.Strs = c.Strs[lo:hi:hi]
	case sqltypes.KindBool:
		out.Bools = c.Bools[lo:hi:hi]
	}
	return out
}

// placeholder stands in a join's output for every column nothing above the
// join reads: all NULL (Kind == KindNull), no payload, so it reads NULL at any
// position. Every output shares it and nothing writes it.
var placeholder Column

// Placeholder returns the one all-NULL column every unread join output column
// is (see JoinedColumns).
func Placeholder() *Column { return &placeholder }

// GatherJoined is a join kernel's output: the columns of left gathered at
// lIdx followed by the columns of right at rIdx (two index lists of one
// length), JoinedColumns filled once from offset 0.
func GatherJoined(left []*Column, lIdx []int32, right []*Column, rIdx []int32, unread uint64) []*Column {
	cols := JoinedColumns(left, right, len(lIdx), unread)
	FillJoined(cols, 0, left, lIdx, right, rIdx)
	return cols
}

// JoinedColumns allocates the n rows of a join's output: the columns of left
// followed by those of right, each typed as its source, every cell zero until
// FillJoined writes it. The column headers share one allocation and the
// payloads one per cell type, so a joined batch costs a handful of
// allocations however many columns the two sides have.
//
// unread names the output columns nothing downstream reads, bit i for column
// i (columns from 64 on are always gathered). Each of them is the
// Placeholder: the batch keeps its schema and its column positions, and pays
// only for the columns that are read. With no rows the columns still carry
// their sources' kinds.
func JoinedColumns(left, right []*Column, n int, unread uint64) []*Column {
	var s slabs
	for i, c := range left {
		if !skipped(unread, i) {
			s.reserve(c, n)
		}
	}
	for i, c := range right {
		if !skipped(unread, len(left)+i) {
			s.reserve(c, n)
		}
	}
	s.alloc()
	heads := make([]Column, len(left)+len(right))
	cols := make([]*Column, len(heads))
	for i := range heads {
		cols[i] = &heads[i]
		switch {
		case skipped(unread, i):
			cols[i] = &placeholder
		case i < len(left):
			s.cut(cols[i], left[i], n)
		default:
			s.cut(cols[i], right[i-len(left)], n)
		}
	}
	return cols
}

// FillJoined writes rows [at, at+len(lIdx)) of the columns JoinedColumns
// allocated over the same sources: left's cells at lIdx, then right's at rIdx.
// The Placeholder is left alone.
func FillJoined(cols []*Column, at int, left []*Column, lIdx []int32, right []*Column, rIdx []int32) {
	for i, out := range cols {
		switch {
		case out == &placeholder:
		case i < len(left):
			out.fill(at, left[i], lIdx)
		default:
			out.fill(at, right[i-len(left)], rIdx)
		}
	}
}

// fill copies src's cells at idx into c's vectors from position at on.
func (c *Column) fill(at int, src *Column, idx []int32) {
	if c.Mixed != nil {
		fillCells(c.Mixed[at:], src.Mixed, idx)
		return
	}
	if c.Nulls != nil {
		fillCells(c.Nulls[at:], src.Nulls, idx)
	}
	switch c.Kind {
	case sqltypes.KindInt:
		fillCells(c.Ints[at:], src.Ints, idx)
	case sqltypes.KindFloat:
		fillCells(c.Floats[at:], src.Floats, idx)
	case sqltypes.KindString:
		fillCells(c.Strs[at:], src.Strs, idx)
	case sqltypes.KindBool:
		fillCells(c.Bools[at:], src.Bools, idx)
	}
}

func fillCells[T any](dst, src []T, idx []int32) {
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// skipped reports whether unread names column i.
func skipped(unread uint64, i int) bool { return i < 64 && unread&(1<<i) != 0 }

// slabs are the allocations a set of gathered columns share: reserve counts
// the cells each column will take, alloc makes one vector per cell type, and
// cut hands every column its vectors off the front of them.
type slabs struct {
	nInts, nFloats, nStrs, nBools, nVals int

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool // bool payloads and null bitmaps
	vals   []sqltypes.Value
}

func (s *slabs) reserve(c *Column, n int) {
	if c.Mixed != nil {
		s.nVals += n
		return
	}
	if c.Nulls != nil {
		s.nBools += n
	}
	switch c.Kind {
	case sqltypes.KindInt:
		s.nInts += n
	case sqltypes.KindFloat:
		s.nFloats += n
	case sqltypes.KindString:
		s.nStrs += n
	case sqltypes.KindBool:
		s.nBools += n
	}
}

func (s *slabs) alloc() {
	if s.nInts > 0 {
		s.ints = make([]int64, s.nInts)
	}
	if s.nFloats > 0 {
		s.floats = make([]float64, s.nFloats)
	}
	if s.nStrs > 0 {
		s.strs = make([]string, s.nStrs)
	}
	if s.nBools > 0 {
		s.bools = make([]bool, s.nBools)
	}
	if s.nVals > 0 {
		s.vals = make([]sqltypes.Value, s.nVals)
	}
}

// cut gives out n cells of each vector c has, typed as c.
func (s *slabs) cut(out, c *Column, n int) {
	out.Kind = c.Kind
	if c.Mixed != nil {
		out.Mixed = cutCells(&s.vals, n)
		return
	}
	if c.Nulls != nil {
		out.Nulls = cutCells(&s.bools, n)
	}
	switch c.Kind {
	case sqltypes.KindInt:
		out.Ints = cutCells(&s.ints, n)
	case sqltypes.KindFloat:
		out.Floats = cutCells(&s.floats, n)
	case sqltypes.KindString:
		out.Strs = cutCells(&s.strs, n)
	case sqltypes.KindBool:
		out.Bools = cutCells(&s.bools, n)
	}
}

// cutCells cuts n cells off the front of the slab, capped so that an append
// cannot run into the next column's cells.
func cutCells[T any](slab *[]T, n int) []T {
	dst := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return dst
}

// byteSize returns the wire size of the cell at physical index i, matching
// Value.ByteSize without building the Value.
func (c *Column) byteSize(i int) int {
	if c.Mixed != nil {
		return c.Mixed[i].ByteSize()
	}
	if c.Kind == sqltypes.KindNull || (c.Nulls != nil && c.Nulls[i]) {
		return 1
	}
	switch c.Kind {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 8
	case sqltypes.KindBool:
		return 1
	default:
		return 2 + len(c.Strs[i])
	}
}

// NewColumn analyzes a cell vector into its columnar form: a typed vector
// when the non-null cells share one kind, the Mixed fallback otherwise.
func NewColumn(cells []sqltypes.Value) *Column {
	kind := sqltypes.KindNull
	uniform := true
	anyNull := false
	for _, v := range cells {
		k := v.Kind()
		if k == sqltypes.KindNull {
			anyNull = true
			continue
		}
		if kind == sqltypes.KindNull {
			kind = k
		} else if k != kind {
			uniform = false
			break
		}
	}
	if !uniform {
		c := &Column{Mixed: make([]sqltypes.Value, len(cells))}
		copy(c.Mixed, cells)
		return c
	}
	c := &Column{Kind: kind}
	if anyNull && kind != sqltypes.KindNull {
		c.Nulls = make([]bool, len(cells))
	}
	switch kind {
	case sqltypes.KindNull:
		return c
	case sqltypes.KindInt:
		c.Ints = make([]int64, len(cells))
	case sqltypes.KindFloat:
		c.Floats = make([]float64, len(cells))
	case sqltypes.KindString:
		c.Strs = make([]string, len(cells))
	case sqltypes.KindBool:
		c.Bools = make([]bool, len(cells))
	}
	for i, v := range cells {
		if v.IsNull() {
			c.Nulls[i] = true
			continue
		}
		switch kind {
		case sqltypes.KindInt:
			c.Ints[i] = v.Int()
		case sqltypes.KindFloat:
			c.Floats[i] = v.Float()
		case sqltypes.KindString:
			c.Strs[i] = v.Str()
		case sqltypes.KindBool:
			c.Bools[i] = v.Bool()
		}
	}
	return c
}

// The three methods below edit a column in place, for a store that owns it:
// each keeps the column what NewColumn builds from its cells.

// AppendValue appends v to c, which holds n cells and will hold total; what
// it allocates has room for all of them.
func (c *Column) AppendValue(n, total int, v sqltypes.Value) {
	k := v.Kind()
	switch {
	case c.Mixed != nil:
		c.Mixed = append(c.Mixed, v)
		return
	case k == sqltypes.KindNull && c.Kind == sqltypes.KindNull:
		return // still all NULL
	case k == sqltypes.KindNull:
		if c.Nulls == nil {
			c.Nulls = make([]bool, n, total)
		}
	case c.Kind == sqltypes.KindNull: // the first non-NULL cell sets the kind
		c.Kind = k
		if n > 0 {
			c.Nulls = make([]bool, n, total)
			for i := range c.Nulls {
				c.Nulls[i] = true
			}
		}
		switch k {
		case sqltypes.KindInt:
			c.Ints = make([]int64, n, total)
		case sqltypes.KindFloat:
			c.Floats = make([]float64, n, total)
		case sqltypes.KindString:
			c.Strs = make([]string, n, total)
		case sqltypes.KindBool:
			c.Bools = make([]bool, n, total)
		}
	case k != c.Kind:
		mixed := make([]sqltypes.Value, n, total)
		for i := range mixed {
			mixed[i] = c.Value(i)
		}
		*c = Column{Mixed: append(mixed, v)}
		return
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, k == sqltypes.KindNull)
	}
	switch c.Kind { // a NULL's payload reads zero
	case sqltypes.KindInt:
		c.Ints = append(c.Ints, v.Int())
	case sqltypes.KindFloat:
		c.Floats = append(c.Floats, v.Float())
	case sqltypes.KindString:
		c.Strs = append(c.Strs, v.Str())
	case sqltypes.KindBool:
		c.Bools = append(c.Bools, v.Bool())
	}
}

// SetValue replaces cell i of c's n cells by v. A non-NULL cell overwritten
// by a value of the column's kind is one store; anything else can change the
// column's form, so the column is rebuilt from its cells.
func (c *Column) SetValue(n, i int, v sqltypes.Value) {
	if c.Mixed != nil || v.Kind() != c.Kind || c.IsNull(i) {
		cells := make([]sqltypes.Value, n)
		for j := range cells {
			cells[j] = c.Value(j)
		}
		cells[i] = v
		*c = *NewColumn(cells)
		return
	}
	switch c.Kind {
	case sqltypes.KindInt:
		c.Ints[i] = v.Int()
	case sqltypes.KindFloat:
		c.Floats[i] = v.Float()
	case sqltypes.KindString:
		c.Strs[i] = v.Str()
	case sqltypes.KindBool:
		c.Bools[i] = v.Bool()
	}
}

// Clone returns a copy of c that shares no slice with it, each slice with
// room for total cells.
func (c *Column) Clone(total int) *Column {
	return &Column{Kind: c.Kind, Ints: grown(c.Ints, total), Floats: grown(c.Floats, total),
		Strs: grown(c.Strs, total), Bools: grown(c.Bools, total), Nulls: grown(c.Nulls, total), Mixed: grown(c.Mixed, total)}
}

func grown[T any](s []T, total int) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, max(len(s), total)), s...)
}

// IntColumn wraps a typed int64 vector (nulls may be nil).
func IntColumn(vals []int64, nulls []bool) *Column {
	return &Column{Kind: sqltypes.KindInt, Ints: vals, Nulls: nulls}
}

// FloatColumn wraps a typed float64 vector (nulls may be nil).
func FloatColumn(vals []float64, nulls []bool) *Column {
	return &Column{Kind: sqltypes.KindFloat, Floats: vals, Nulls: nulls}
}

// StringColumn wraps a typed string vector (nulls may be nil).
func StringColumn(vals []string, nulls []bool) *Column {
	return &Column{Kind: sqltypes.KindString, Strs: vals, Nulls: nulls}
}

// BoolColumn wraps a typed bool vector (nulls may be nil).
func BoolColumn(vals []bool, nulls []bool) *Column {
	return &Column{Kind: sqltypes.KindBool, Bools: vals, Nulls: nulls}
}

// NullColumn is an all-NULL column.
func NullColumn() *Column { return &Column{Kind: sqltypes.KindNull} }

// MaxRows is the most rows a row position can name. A position is an int32
// wherever the engine keeps one — a selection vector, a join's match lists,
// an index entry — so nothing that positions index may grow past it: a table
// refuses the append (storage.Table.Append) and a join the output (exec)
// that would, and no narrowing to int32 wraps.
const MaxRows = math.MaxInt32

// Batch is a columnar slice of a relation: a schema, one Column per
// attribute, and a logical row window. The window is either a contiguous
// physical range [off, off+n) or an explicit selection vector of physical
// indices, 4 bytes each (Sel non-nil wins). Columns may be shared between
// batches; treat them as immutable once the batch is built.
type Batch struct {
	Schema *sqltypes.Schema
	Cols   []*Column
	Sel    []int32
	off    int
	n      int
}

// New builds a batch over contiguous physical rows [0, n).
func New(schema *sqltypes.Schema, cols []*Column, n int) *Batch {
	return &Batch{Schema: schema, Cols: cols, n: n}
}

// NewSelected builds a batch whose logical rows are the physical indices in
// sel.
func NewSelected(schema *sqltypes.Schema, cols []*Column, sel []int32) *Batch {
	return &Batch{Schema: schema, Cols: cols, Sel: sel, n: len(sel)}
}

// Len returns the logical row count.
func (b *Batch) Len() int { return b.n }

// phys maps a logical row index to its physical position.
func (b *Batch) phys(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return b.off + i
}

// Value reconstructs the cell at (logical row, column).
func (b *Batch) Value(row, col int) sqltypes.Value {
	return b.Cols[col].Value(b.phys(row))
}

// Phys maps a logical row index to its physical position — exported so
// kernels can index typed payload slices directly.
func (b *Batch) Phys(i int) int { return b.phys(i) }

// Contig reports whether the batch's logical rows are the contiguous
// physical range [off, off+Len()), returning off. Kernels use it to run
// straight-line loops over payload subslices instead of indexing through a
// selection vector.
func (b *Batch) Contig() (int, bool) {
	if b.Sel == nil {
		return b.off, true
	}
	return 0, false
}

// Row materializes logical row i.
func (b *Batch) Row(i int) sqltypes.Row {
	p := b.phys(i)
	out := make(sqltypes.Row, len(b.Cols))
	for c, col := range b.Cols {
		out[c] = col.Value(p)
	}
	return out
}

// Slice returns a view of logical rows [lo, hi). Underlying columns are
// shared.
func (b *Batch) Slice(lo, hi int) *Batch {
	if b.Sel != nil {
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: b.Sel[lo:hi], n: hi - lo}
	}
	return &Batch{Schema: b.Schema, Cols: b.Cols, off: b.off + lo, n: hi - lo}
}

// Windows cuts b's logical rows into consecutive views of size rows each, the
// last one shorter (an empty batch is one empty view), with every header in
// one allocation. Underlying columns are shared.
func (b *Batch) Windows(size int) []Batch {
	ws := make([]Batch, max(1, (b.n+size-1)/size))
	for i := range ws {
		lo := i * size
		hi := min(lo+size, b.n)
		ws[i] = Batch{Schema: b.Schema, Cols: b.Cols, off: b.off + lo, n: hi - lo}
		if b.Sel != nil {
			ws[i].Sel, ws[i].off = b.Sel[lo:hi], 0
		}
	}
	return ws
}

// WithColumns returns a batch sharing b's row window over a different
// column set; the columns must share b's physical layout. Pure column
// projections use it to avoid touching any payload.
func (b *Batch) WithColumns(schema *sqltypes.Schema, cols []*Column) *Batch {
	return &Batch{Schema: schema, Cols: cols, Sel: b.Sel, off: b.off, n: b.n}
}

// Select returns a view keeping the logical rows named by sel (indices into
// the batch's logical row space).
func (b *Batch) Select(sel []int32) *Batch {
	phys := make([]int32, len(sel))
	for i, s := range sel {
		phys[i] = int32(b.phys(int(s)))
	}
	return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: phys, n: len(phys)}
}

// SelectOwned is Select for a vector the caller hands over, a kernel's fresh
// selection: its entries become physical positions in place, through b's own
// selection or past its window's offset, and no second vector is allocated.
func (b *Batch) SelectOwned(sel []int32) *Batch {
	if b.Sel != nil {
		for i, s := range sel {
			sel[i] = b.Sel[s]
		}
	} else if b.off != 0 {
		for i := range sel {
			sel[i] += int32(b.off)
		}
	}
	return NewSelected(b.Schema, b.Cols, sel)
}

// Materialize compacts the batch into contiguous physical storage, dropping
// the selection vector and window offset. A batch that is already
// contiguous and unwindowed is returned as is.
func (b *Batch) Materialize() *Batch {
	if b.Sel == nil && b.off == 0 && (len(b.Cols) == 0 || b.physLen() == b.n) {
		return b
	}
	idx := make([]int32, b.n)
	for i := range idx {
		idx[i] = int32(b.phys(i))
	}
	cols := make([]*Column, len(b.Cols))
	for c, col := range b.Cols {
		cols[c] = col.Gather(idx)
	}
	return &Batch{Schema: b.Schema, Cols: cols, n: b.n}
}

// physLen returns the physical length of the first column's storage.
func (b *Batch) physLen() int {
	c := b.Cols[0]
	if c.Mixed != nil {
		return len(c.Mixed)
	}
	switch c.Kind {
	case sqltypes.KindInt:
		return len(c.Ints)
	case sqltypes.KindFloat:
		return len(c.Floats)
	case sqltypes.KindString:
		return len(c.Strs)
	case sqltypes.KindBool:
		return len(c.Bools)
	default:
		if c.Nulls != nil {
			return len(c.Nulls)
		}
		return b.n
	}
}

// FromRelation decomposes a relation into columnar form. The relation's
// rows are not retained.
func FromRelation(rel *sqltypes.Relation) *Batch {
	n := len(rel.Rows)
	cols := make([]*Column, len(rel.Schema.Columns))
	cells := make([]sqltypes.Value, n)
	for c := range cols {
		cols[c] = RowsColumn(rel.Rows, c, cells)
	}
	return &Batch{Schema: rel.Schema, Cols: cols, n: n}
}

// RowsColumn decomposes column c of rows, the column FromRelation builds;
// cells is scratch of len(rows) values that the call overwrites.
func RowsColumn(rows []sqltypes.Row, c int, cells []sqltypes.Value) *Column {
	for i, row := range rows {
		cells[i] = row[c]
	}
	return NewColumn(cells)
}

// ToRelation materializes the batch's logical rows as a relation. Cell
// values are exactly the values the batch was built from.
func (b *Batch) ToRelation() *sqltypes.Relation { return ToRelation([]*Batch{b}) }

// ToRelation boxes the logical rows of one or more batches of one schema, in
// order, into a relation. All cells live in ONE backing array and the rows
// are capped slices of it (an append to one row reallocates instead of
// running into the next): a result costs one cell allocation, not one per
// row.
func ToRelation(batches []*Batch) *sqltypes.Relation {
	n, w := 0, len(batches[0].Cols)
	for _, b := range batches {
		n += b.n
	}
	rel := &sqltypes.Relation{Schema: batches[0].Schema, Rows: make([]sqltypes.Row, 0, n)}
	cells := make([]sqltypes.Value, n*w)
	for _, b := range batches {
		for c, col := range b.Cols {
			for i := 0; i < b.n; i++ {
				cells[i*w+c] = col.Value(b.phys(i))
			}
		}
		for i := 0; i < b.n; i++ {
			rel.Rows = append(rel.Rows, cells[i*w:(i+1)*w:(i+1)*w])
		}
		cells = cells[b.n*w:]
	}
	return rel
}

// WireSize returns the wire size of the batch's logical rows, exactly equal
// to b.ToRelation().ByteSize() but computed from per-column sums: fixed-
// width columns without nulls cost O(1), only string and mixed columns walk
// their cells. Keeping the byte count identical keeps every network
// Transfer draw identical between the columnar and row paths.
func (b *Batch) WireSize() int {
	n := 16 + 4*b.n
	for _, col := range b.Cols {
		n += b.colBytes(col)
	}
	return n
}

// colBytes sums one column's cell sizes over the batch's logical rows.
func (b *Batch) colBytes(c *Column) int {
	if c.Mixed == nil && c.Kind != sqltypes.KindString {
		// Fixed-width kind: width*rows, with nulls charged at 1 byte.
		var width int
		switch c.Kind {
		case sqltypes.KindInt, sqltypes.KindFloat:
			width = 8
		default: // KindBool, KindNull
			width = 1
		}
		if c.Nulls == nil || width == 1 {
			return width * b.n
		}
		nulls := 0
		for i := 0; i < b.n; i++ {
			if c.Nulls[b.phys(i)] {
				nulls++
			}
		}
		return width*(b.n-nulls) + nulls
	}
	total := 0
	for i := 0; i < b.n; i++ {
		total += c.byteSize(b.phys(i))
	}
	return total
}

// Accumulator concatenates batches: the vectorized engine's blocking
// operators collect their input through it. Append only records the batch,
// and Finish copies no cell it does not have to. A lone batch comes back
// uncopied. Batches that are all windows over the same columns (a scan's
// windows, or filtered, limited or column-picked views of them) come back as
// one view of those columns: adjacent contiguous windows as one window,
// anything else as one selection vector. Only batches over different columns
// are copied, every cell ONCE, into columns allocated at their final size:
// matching kinds append typed payload slices and kind conflicts demote the
// column to the Mixed representation, so the accumulated cells are always
// exactly the concatenation of the inputs' cells. The zero value is ready for
// use once a batch has been appended (it takes the first batch's schema).
type Accumulator struct {
	schema *sqltypes.Schema
	first  *Batch
	rest   []*Batch
	n      int
}

// NewAccumulator starts an accumulator for the schema.
func NewAccumulator(schema *sqltypes.Schema) *Accumulator {
	return &Accumulator{schema: schema}
}

// Len returns the number of rows accumulated so far.
func (a *Accumulator) Len() int { return a.n }

// Append adds b's logical rows. b must not change afterwards.
func (a *Accumulator) Append(b *Batch) {
	if a.first == nil {
		a.first = b
	} else {
		a.rest = append(a.rest, b)
	}
	a.n += b.Len()
}

// Finish returns the accumulated batch. The accumulator must not be
// appended to afterwards.
func (a *Accumulator) Finish() *Batch {
	if a.first != nil && a.rest == nil {
		return a.first
	}
	schema, parts := a.schema, a.rest
	if a.first != nil {
		schema, parts = a.first.Schema, append([]*Batch{a.first}, a.rest...)
		if b := a.joinViews(schema, parts); b != nil {
			return b
		}
	}
	cols := make([]*Column, len(schema.Columns))
	for c := range cols {
		col, at := &Column{}, 0
		for _, p := range parts {
			col = appendCol(col, at, a.n, p.Cols[c], p)
			at += p.Len()
		}
		cols[c] = col
	}
	return &Batch{Schema: schema, Cols: cols, n: a.n}
}

// joinViews is Finish for parts that all read the same columns (pointer for
// pointer): one view over them, nil when the columns differ. Empty parts
// keep their place in the column check, so a result of no rows still carries
// the columns' kinds, but never break a run of adjacent windows.
func (a *Accumulator) joinViews(schema *sqltypes.Schema, parts []*Batch) *Batch {
	cols, ok := SharedColumns(parts)
	if !ok {
		return nil
	}
	contig, start, end := true, -1, 0
	for _, p := range parts {
		switch {
		case p.n == 0:
		case p.Sel != nil || (start >= 0 && p.off != end):
			contig = false
		default:
			if start < 0 {
				start = p.off
			}
			end = p.off + p.n
		}
	}
	if contig {
		return &Batch{Schema: schema, Cols: cols, off: max(start, 0), n: a.n}
	}
	sel := make([]int32, 0, a.n)
	for _, p := range parts {
		if p.Sel != nil {
			sel = append(sel, p.Sel...)
			continue
		}
		for i := 0; i < p.n; i++ {
			sel = append(sel, int32(p.off+i))
		}
	}
	return &Batch{Schema: schema, Cols: cols, Sel: sel, n: a.n}
}

// SharedColumns returns the one set of columns every part reads, pointer for
// pointer (a scan's or an index join's windows, filtered or not), and false
// when the parts read different columns or there are none.
func SharedColumns(parts []*Batch) ([]*Column, bool) {
	if len(parts) == 0 {
		return nil, false
	}
	cols := parts[0].Cols
	for _, p := range parts[1:] {
		if len(p.Cols) != len(cols) {
			return nil, false
		}
		for c, col := range p.Cols {
			if col != cols[c] {
				return nil, false
			}
		}
	}
	return cols, true
}

// appendCol appends src's cells (through window w) onto dst, which holds
// dstLen cells and will hold total: whatever it allocates, it allocates with
// room for all of them.
func appendCol(dst *Column, dstLen, total int, src *Column, w *Batch) *Column {
	n := w.Len()
	if n == 0 {
		return dst
	}
	boxAppend := func() *Column {
		if dst.Mixed == nil {
			mixed := make([]sqltypes.Value, dstLen, total)
			for i := 0; i < dstLen; i++ {
				mixed[i] = dst.Value(i)
			}
			dst = &Column{Mixed: mixed}
		}
		for i := 0; i < n; i++ {
			dst.Mixed = append(dst.Mixed, src.Value(w.Phys(i)))
		}
		return dst
	}
	if dst.Mixed != nil || src.Mixed != nil {
		return boxAppend()
	}
	// Adopt the incoming kind when dst is empty or all-NULL so far.
	if dst.Kind == sqltypes.KindNull && src.Kind != sqltypes.KindNull {
		k := &Column{Kind: src.Kind}
		if dstLen > 0 {
			k.Nulls = make([]bool, dstLen, total)
			for i := range k.Nulls {
				k.Nulls[i] = true
			}
		}
		switch src.Kind {
		case sqltypes.KindInt:
			k.Ints = make([]int64, dstLen, total)
		case sqltypes.KindFloat:
			k.Floats = make([]float64, dstLen, total)
		case sqltypes.KindString:
			k.Strs = make([]string, dstLen, total)
		case sqltypes.KindBool:
			k.Bools = make([]bool, dstLen, total)
		}
		dst = k
	}
	switch {
	case src.Kind == sqltypes.KindNull:
		// Appending NULLs: extend payload with zeros and mark nulls.
		dst.ensureNulls(dstLen, total)
		for i := 0; i < n; i++ {
			dst.Nulls = append(dst.Nulls, true)
		}
		dst.extendZero(n)
		return dst
	case src.Kind != dst.Kind:
		return boxAppend()
	}
	// Same typed kind: bulk-append payloads and merge null bitmaps.
	if src.Nulls != nil || dst.Nulls != nil {
		dst.ensureNulls(dstLen, total)
		for i := 0; i < n; i++ {
			dst.Nulls = append(dst.Nulls, src.Nulls != nil && src.Nulls[w.Phys(i)])
		}
	}
	if off, ok := w.Contig(); ok {
		switch dst.Kind {
		case sqltypes.KindInt:
			dst.Ints = append(dst.Ints, src.Ints[off:off+n]...)
		case sqltypes.KindFloat:
			dst.Floats = append(dst.Floats, src.Floats[off:off+n]...)
		case sqltypes.KindString:
			dst.Strs = append(dst.Strs, src.Strs[off:off+n]...)
		case sqltypes.KindBool:
			dst.Bools = append(dst.Bools, src.Bools[off:off+n]...)
		}
		return dst
	}
	for i := 0; i < n; i++ {
		p := w.Phys(i)
		switch dst.Kind {
		case sqltypes.KindInt:
			dst.Ints = append(dst.Ints, src.Ints[p])
		case sqltypes.KindFloat:
			dst.Floats = append(dst.Floats, src.Floats[p])
		case sqltypes.KindString:
			dst.Strs = append(dst.Strs, src.Strs[p])
		case sqltypes.KindBool:
			dst.Bools = append(dst.Bools, src.Bools[p])
		}
	}
	return dst
}

// ensureNulls backfills a null bitmap of length n (room for total) with
// false.
func (c *Column) ensureNulls(n, total int) {
	if c.Nulls == nil {
		c.Nulls = make([]bool, n, total)
	}
}

// extendZero appends n zero payload cells of the column's kind.
func (c *Column) extendZero(n int) {
	switch c.Kind {
	case sqltypes.KindInt:
		c.Ints = append(c.Ints, make([]int64, n)...)
	case sqltypes.KindFloat:
		c.Floats = append(c.Floats, make([]float64, n)...)
	case sqltypes.KindString:
		c.Strs = append(c.Strs, make([]string, n)...)
	case sqltypes.KindBool:
		c.Bools = append(c.Bools, make([]bool, n)...)
	}
}

// Builder accumulates rows into a batch, the row-at-a-time construction
// used at fallback boundaries. Columns come out typed when kind-uniform,
// exactly as FromRelation would produce them.
type Builder struct {
	schema *sqltypes.Schema
	cells  [][]sqltypes.Value
	n      int
}

// NewBuilder starts a builder for the schema.
func NewBuilder(schema *sqltypes.Schema) *Builder {
	return &Builder{schema: schema, cells: make([][]sqltypes.Value, len(schema.Columns))}
}

// AppendRow adds one row.
func (b *Builder) AppendRow(row sqltypes.Row) {
	for c := range b.cells {
		b.cells[c] = append(b.cells[c], row[c])
	}
	b.n++
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.n }

// Finish analyzes the accumulated cells into a batch.
func (b *Builder) Finish() *Batch {
	cols := make([]*Column, len(b.cells))
	for c, cells := range b.cells {
		cols[c] = NewColumn(cells)
	}
	return &Batch{Schema: b.schema, Cols: cols, n: b.n}
}
