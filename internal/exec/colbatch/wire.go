// Wire encoding for column batches: the typed columnar protocol that remote
// cursors ship across the (simulated) process boundary instead of boxed rows.
//
// Layout (all multi-byte integers little-endian; uvarint/varint are Go's
// encoding/binary varints, signed values zigzag-encoded):
//
//	magic 0xCB | version 0x01 | uvarint ncols | uvarint nrows
//	then per column:
//	  kind byte: 0=null 1=int 2=float 3=string 4=bool 5=mixed
//	  kind 0 (all-NULL): nothing further — nrows NULLs are implied.
//	  kinds 1-4:
//	    null byte: 0 = no NULLs, 1 = a bitmap of ceil(nrows/8) bytes follows
//	               (bit i of byte i/8 set ⇔ row i is NULL)
//	    encoding byte + payload covering the non-null cells only, in row
//	    order:
//	      int    enc 0: zigzag varint per value
//	             enc 1: first value zigzag varint, then zigzag varint deltas
//	                    (wins on sequential keys)
//	      float  enc 0: fixed 8-byte IEEE-754 bits per value
//	      bool   enc 0: bitpacked, 8 values per byte
//	      string enc 0: uvarint length + raw bytes per value
//	             enc 1: dictionary — uvarint dict size, dict entries
//	                    (uvarint length + bytes, first-appearance order),
//	                    then indexes bitpacked at bits(dictsize-1) width
//	                    (wins on low-cardinality tag columns)
//	kind 5 (mixed, not kind-uniform): per cell a kind byte then the scalar
//	payload (int zigzag varint, float 8 bytes, string uvarint+bytes, bool 1
//	byte, null nothing).
//
// The schema is NOT on the wire: it travels once in the plan handshake, so
// Decode takes it as a parameter. The encoder applies the batch's selection
// vector/window — the receiver always sees a contiguous, compacted batch.
// Chooser rule: the encoder computes the exact byte size of each candidate
// encoding (plain vs delta ints, plain vs dictionary strings) and emits only
// the shorter one, so choosing costs arithmetic, not a second payload.
// Bumping the version byte is the upgrade path for new encodings; Decode
// rejects versions it does not know.
package colbatch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/sqltypes"
)

const (
	wireMagic   = 0xCB
	wireVersion = 0x01

	wireKindMixed = 5 // column tag for non-kind-uniform columns

	encIntPlain = 0
	encIntDelta = 1
	encStrPlain = 0
	encStrDict  = 1
)

// ShipBatchRows is the row count of the batches fragment results ship in:
// large enough to amortize per-batch latency, small enough that a
// multi-thousand-row fragment pipelines through many transfer/produce
// overlaps. The integrator asks remote cursors for batches of this size, and
// the table statistics size a shipped column with it.
const ShipBatchRows = 256

// Encoded is a batch in wire form plus the bookkeeping the telemetry layer
// wants: the encoded size is what the network model charges, the per-column
// encoding labels land in span attributes.
type Encoded struct {
	Data   []byte   // the encoding itself; nil when the batch was only measured
	Size   int      // the encoding's length in bytes
	ColEnc []string // per-column encoding label, e.g. "int-delta", "str-dict(4)"
	Rows   int
}

// WireBytes is the size the network model charges for the encoded batch.
func (e *Encoded) WireBytes() int { return e.Size }

// Encode serializes the batch's logical rows. The selection vector and row
// window are applied here: the wire carries only the selected rows,
// compacted, and they are read in place through the window — nothing is
// gathered first. Every column is sized before anything is written (which is
// also where the encoding is chosen), so the buffer is allocated once at its
// exact length.
func Encode(b *Batch) *Encoded {
	var few [8]colPlan // keeps the plans of an ordinary batch off the heap
	plans := few[:]
	if len(b.Cols) > len(few) {
		plans = make([]colPlan, len(b.Cols))
	}
	e := measure(b, plans[:len(b.Cols)])
	out := make([]byte, 0, e.Size)
	out = append(out, wireMagic, wireVersion)
	out = binary.AppendUvarint(out, uint64(len(b.Cols)))
	out = binary.AppendUvarint(out, uint64(e.Rows))
	w := b.cells()
	for ci, col := range b.Cols {
		out = emitColumn(out, col, w, &plans[ci])
	}
	e.Data = out
	return e
}

// Measure is Encode without the bytes: the size, the encoding labels and the
// row count of b's encoding, from the same planning pass, with nothing
// written. A sender that only has to know what a batch costs on the wire
// measures it.
func Measure(b *Batch) *Encoded { return measure(b, nil) }

// measure sizes b column by column (planColumn) and, when plans is not nil,
// keeps each column's plan in plans[c] for emitColumn.
func measure(b *Batch, plans []colPlan) *Encoded {
	w := b.cells()
	e := &Encoded{Size: 2 + uvarintLen(uint64(len(b.Cols))) + uvarintLen(uint64(w.n)), ColEnc: make([]string, len(b.Cols)), Rows: w.n}
	for ci, col := range b.Cols {
		p := planColumn(col, w)
		e.Size += p.size
		e.ColEnc[ci] = p.label
		if plans != nil {
			plans[ci] = p
		}
	}
	return e
}

// ColumnWireBytes is what the first n cells of a column take on the wire when
// they ship in batches of batchRows: the sizes Encode would allot them, a
// batch's header left out.
func ColumnWireBytes(c *Column, n, batchRows int) int {
	size := 0
	for lo := 0; lo < n; lo += batchRows {
		size += planColumn(c, cells{off: lo, n: min(batchRows, n-lo)}).size
	}
	return size
}

// cells names the physical cells of a column that a batch's logical rows
// cover: sel when non-nil, the range [off, off+n) otherwise.
type cells struct {
	sel    []int32
	off, n int
}

// cells returns the physical cells b's logical rows cover.
func (b *Batch) cells() cells { return cells{sel: b.Sel, off: b.off, n: b.n} }

func (w cells) at(i int) int {
	if w.sel != nil {
		return int(w.sel[i])
	}
	return w.off + i
}

// colPlan is what sizing one column decides: how many bytes it takes, whether
// a null bitmap is written, and which payload encoding won.
type colPlan struct {
	size    int      // encoded bytes, kind tag included
	nulls   bool     // some covered cell is NULL
	kept    int      // non-null covered cells: the payload's length
	enc     byte     // payload encoding
	label   string   // encoding label for telemetry
	entries []string // string dictionary in first-appearance order
	idx     []uint64 // dictionary index of every kept cell
}

// planColumn sizes the covered cells of one column. The chooser rule lives
// here: both candidate encodings of an int or string column are sized
// arithmetically and only the shorter one is ever written.
func planColumn(c *Column, w cells) colPlan {
	p := colPlan{size: 1, kept: w.n}
	if c.Mixed != nil {
		p.label = "mixed"
		for i := 0; i < w.n; i++ {
			p.size += mixedLen(c.Mixed[w.at(i)])
		}
		return p
	}
	if c.Kind == sqltypes.KindNull {
		p.label = "null"
		return p
	}
	if c.Nulls != nil {
		for i := 0; i < w.n; i++ {
			if c.Nulls[w.at(i)] {
				p.kept--
			}
		}
	}
	p.size += 2 // null flag, encoding byte
	if p.nulls = p.kept < w.n; p.nulls {
		p.size += (w.n + 7) / 8
	}
	switch c.Kind {
	case sqltypes.KindInt:
		plain, delta, prev, first := 0, 0, int64(0), true
		for i := 0; i < w.n; i++ {
			at := w.at(i)
			if p.nulls && c.Nulls[at] {
				continue
			}
			v := c.Ints[at]
			plain += varintLen(v)
			if first {
				delta += varintLen(v)
				first = false
			} else {
				delta += varintLen(v - prev)
			}
			prev = v
		}
		if delta < plain {
			p.enc, p.label, p.size = encIntDelta, "int-delta", p.size+delta
		} else {
			p.enc, p.label, p.size = encIntPlain, "int", p.size+plain
		}
	case sqltypes.KindFloat:
		p.label, p.size = "float", p.size+8*p.kept
	case sqltypes.KindBool:
		p.label, p.size = "bool", p.size+(p.kept+7)/8
	case sqltypes.KindString:
		// Dictionary pass: entries in first-appearance order, indexes bitpacked.
		ids := make(map[string]int, 8)
		p.entries = make([]string, 0, 8)
		p.idx = make([]uint64, 0, p.kept)
		plain, dictEntries := 0, 0
		for i := 0; i < w.n; i++ {
			at := w.at(i)
			if p.nulls && c.Nulls[at] {
				continue
			}
			s := c.Strs[at]
			plain += uvarintLen(uint64(len(s))) + len(s)
			id, ok := ids[s]
			if !ok {
				id = len(p.entries)
				ids[s] = id
				p.entries = append(p.entries, s)
				dictEntries += uvarintLen(uint64(len(s))) + len(s)
			}
			p.idx = append(p.idx, uint64(id))
		}
		dict := uvarintLen(uint64(len(p.entries))) + dictEntries + (p.kept*indexWidth(len(p.entries))+7)/8
		if dict < plain {
			p.enc, p.label, p.size = encStrDict, "str-dict("+strconv.Itoa(len(p.entries))+")", p.size+dict
		} else {
			p.enc, p.label, p.size = encStrPlain, "str", p.size+plain
		}
	default:
		panic(fmt.Sprintf("colbatch: unencodable column kind %d", c.Kind))
	}
	return p
}

// emitColumn appends one column's covered cells as planColumn sized them.
func emitColumn(out []byte, c *Column, w cells, p *colPlan) []byte {
	if c.Mixed != nil {
		out = append(out, wireKindMixed)
		for i := 0; i < w.n; i++ {
			out = appendMixed(out, c.Mixed[w.at(i)])
		}
		return out
	}
	out = append(out, byte(c.Kind))
	if c.Kind == sqltypes.KindNull {
		return out
	}
	// Null bitmap (omitted entirely when no covered cell is NULL); the payload
	// covers the non-null cells only.
	null := func(at int) bool { return p.nulls && c.Nulls[at] }
	if p.nulls {
		out = append(out, 1)
		out = appendBitmap(out, w.n, func(i int) bool { return c.Nulls[w.at(i)] })
	} else {
		out = append(out, 0)
	}
	out = append(out, p.enc)
	switch c.Kind {
	case sqltypes.KindInt:
		prev, first := int64(0), true
		for i := 0; i < w.n; i++ {
			at := w.at(i)
			if null(at) {
				continue
			}
			v := c.Ints[at]
			if p.enc == encIntDelta && !first {
				out = binary.AppendVarint(out, v-prev)
			} else {
				out = binary.AppendVarint(out, v)
			}
			prev, first = v, false
		}
	case sqltypes.KindFloat:
		for i := 0; i < w.n; i++ {
			if at := w.at(i); !null(at) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Floats[at]))
			}
		}
	case sqltypes.KindBool:
		start, k := len(out), 0 // k counts the non-null cells packed so far
		out = append(out, make([]byte, (p.kept+7)/8)...)
		for i := 0; i < w.n; i++ {
			if at := w.at(i); !null(at) {
				if c.Bools[at] {
					out[start+k/8] |= 1 << (k % 8)
				}
				k++
			}
		}
	case sqltypes.KindString:
		if p.enc == encStrDict {
			out = binary.AppendUvarint(out, uint64(len(p.entries)))
			for _, s := range p.entries {
				out = binary.AppendUvarint(out, uint64(len(s)))
				out = append(out, s...)
			}
			return appendPacked(out, p.idx, indexWidth(len(p.entries)))
		}
		for i := 0; i < w.n; i++ {
			if at := w.at(i); !null(at) {
				out = binary.AppendUvarint(out, uint64(len(c.Strs[at])))
				out = append(out, c.Strs[at]...)
			}
		}
	}
	return out
}

// varintLen is the encoded size of one zigzag varint.
func varintLen(v int64) int {
	uv := uint64(v)<<1 ^ uint64(v>>63)
	return (bits.Len64(uv|1) + 6) / 7
}

// uvarintLen is the encoded size of one uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// mixedLen is the encoded size of one tagged scalar.
func mixedLen(v sqltypes.Value) int {
	switch v.Kind() {
	case sqltypes.KindInt:
		return 1 + varintLen(v.Int())
	case sqltypes.KindFloat:
		return 9
	case sqltypes.KindString:
		return 1 + uvarintLen(uint64(len(v.Str()))) + len(v.Str())
	case sqltypes.KindBool:
		return 2
	default:
		return 1
	}
}

// appendMixed writes one tagged scalar.
func appendMixed(out []byte, v sqltypes.Value) []byte {
	out = append(out, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindInt:
		out = binary.AppendVarint(out, v.Int())
	case sqltypes.KindFloat:
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Float()))
	case sqltypes.KindString:
		s := v.Str()
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	case sqltypes.KindBool:
		if v.Bool() {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// indexWidth is the bit width needed to address dict entries [0, n).
func indexWidth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// appendBitmap packs n bools 8 per byte, LSB first.
func appendBitmap(out []byte, n int, bit func(i int) bool) []byte {
	start := len(out)
	out = append(out, make([]byte, (n+7)/8)...)
	for i := 0; i < n; i++ {
		if bit(i) {
			out[start+i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// readBitmap unpacks n bools packed 8 per byte.
func readBitmap(data []byte, pos, n int) ([]bool, int, error) {
	nb := (n + 7) / 8
	if pos+nb > len(data) {
		return nil, 0, fmt.Errorf("colbatch wire: truncated bitmap")
	}
	vals := make([]bool, n)
	for i := 0; i < n; i++ {
		vals[i] = data[pos+i/8]&(1<<(i%8)) != 0
	}
	return vals, pos + nb, nil
}

// appendPacked bitpacks each value at the given width, LSB first.
func appendPacked(out []byte, vals []uint64, width int) []byte {
	nbits := len(vals) * width
	nb := (nbits + 7) / 8
	start := len(out)
	out = append(out, make([]byte, nb)...)
	bit := 0
	for _, v := range vals {
		for w := 0; w < width; w++ {
			if v&(1<<w) != 0 {
				out[start+bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return out
}

// readPacked unpacks n values bitpacked at the given width.
func readPacked(data []byte, pos, n, width int) ([]uint64, int, error) {
	nbits := n * width
	nb := (nbits + 7) / 8
	if pos+nb > len(data) {
		return nil, 0, fmt.Errorf("colbatch wire: truncated packed indexes")
	}
	vals := make([]uint64, n)
	bit := 0
	for i := 0; i < n; i++ {
		var v uint64
		for w := 0; w < width; w++ {
			if data[pos+bit/8]&(1<<(bit%8)) != 0 {
				v |= 1 << w
			}
			bit++
		}
		vals[i] = v
	}
	return vals, pos + nb, nil
}

// Decode reconstructs a contiguous batch from wire bytes. The schema comes
// from the plan handshake; it supplies the column count check and the
// decoded batch's schema pointer.
func Decode(schema *sqltypes.Schema, data []byte) (*Batch, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("colbatch wire: short buffer (%d bytes)", len(data))
	}
	if data[0] != wireMagic {
		return nil, fmt.Errorf("colbatch wire: bad magic 0x%02X", data[0])
	}
	if data[1] != wireVersion {
		return nil, fmt.Errorf("colbatch wire: unsupported version %d", data[1])
	}
	pos := 2
	ncols, pos, err := readUvarint(data, pos)
	if err != nil {
		return nil, err
	}
	nrows, pos, err := readUvarint(data, pos)
	if err != nil {
		return nil, err
	}
	if schema != nil && int(ncols) != schema.Len() {
		return nil, fmt.Errorf("colbatch wire: %d columns on wire, schema has %d", ncols, schema.Len())
	}
	n := int(nrows)
	cols := make([]*Column, ncols)
	for ci := range cols {
		cols[ci], pos, err = decodeColumn(data, pos, n)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", ci, err)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("colbatch wire: %d trailing bytes", len(data)-pos)
	}
	return New(schema, cols, n), nil
}

// decodeColumn reads one column of n rows.
func decodeColumn(data []byte, pos, n int) (*Column, int, error) {
	if pos >= len(data) {
		return nil, 0, fmt.Errorf("colbatch wire: missing column tag")
	}
	tag := data[pos]
	pos++
	if tag == wireKindMixed {
		return decodeMixed(data, pos, n)
	}
	kind := sqltypes.Kind(tag)
	if kind == sqltypes.KindNull {
		return NullColumn(), pos, nil
	}
	if pos >= len(data) {
		return nil, 0, fmt.Errorf("colbatch wire: missing null flag")
	}
	nullFlag := data[pos]
	pos++
	var nulls []bool
	var err error
	switch nullFlag {
	case 0:
	case 1:
		nulls, pos, err = readBitmap(data, pos, n)
		if err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("colbatch wire: bad null flag %d", nullFlag)
	}
	kept := n
	if nulls != nil {
		kept = 0
		for _, isNull := range nulls {
			if !isNull {
				kept++
			}
		}
	}
	if pos >= len(data) {
		return nil, 0, fmt.Errorf("colbatch wire: missing encoding byte")
	}
	enc := data[pos]
	pos++
	col := &Column{Kind: kind, Nulls: nulls}
	switch kind {
	case sqltypes.KindInt:
		vals, npos, err := decodeInts(data, pos, kept, enc)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		col.Ints = scatter(vals, nulls, n)
	case sqltypes.KindFloat:
		if enc != 0 {
			return nil, 0, fmt.Errorf("colbatch wire: bad float encoding %d", enc)
		}
		if pos+8*kept > len(data) {
			return nil, 0, fmt.Errorf("colbatch wire: truncated floats")
		}
		vals := make([]float64, kept)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
		col.Floats = scatter(vals, nulls, n)
	case sqltypes.KindBool:
		if enc != 0 {
			return nil, 0, fmt.Errorf("colbatch wire: bad bool encoding %d", enc)
		}
		vals, npos, err := readBitmap(data, pos, kept)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		col.Bools = scatter(vals, nulls, n)
	case sqltypes.KindString:
		vals, npos, err := decodeStrings(data, pos, kept, enc)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		col.Strs = scatter(vals, nulls, n)
	default:
		return nil, 0, fmt.Errorf("colbatch wire: unknown column kind %d", kind)
	}
	return col, pos, nil
}

// scatter spreads kept (non-null) values back to n slots, zero at NULLs.
func scatter[T any](kept []T, nulls []bool, n int) []T {
	if nulls == nil {
		out := make([]T, n)
		copy(out, kept)
		return out
	}
	out := make([]T, n)
	j := 0
	for i := 0; i < n; i++ {
		if !nulls[i] {
			out[i] = kept[j]
			j++
		}
	}
	return out
}

// decodeInts reads kept ints under the given encoding.
func decodeInts(data []byte, pos, kept int, enc byte) ([]int64, int, error) {
	vals := make([]int64, kept)
	switch enc {
	case encIntPlain:
		for i := range vals {
			v, npos, err := readVarint(data, pos)
			if err != nil {
				return nil, 0, err
			}
			vals[i] = v
			pos = npos
		}
	case encIntDelta:
		prev := int64(0)
		for i := range vals {
			v, npos, err := readVarint(data, pos)
			if err != nil {
				return nil, 0, err
			}
			if i == 0 {
				prev = v
			} else {
				prev += v
			}
			vals[i] = prev
			pos = npos
		}
	default:
		return nil, 0, fmt.Errorf("colbatch wire: bad int encoding %d", enc)
	}
	return vals, pos, nil
}

// decodeStrings reads kept strings under the given encoding.
func decodeStrings(data []byte, pos, kept int, enc byte) ([]string, int, error) {
	switch enc {
	case encStrPlain:
		vals := make([]string, kept)
		for i := range vals {
			s, npos, err := readString(data, pos)
			if err != nil {
				return nil, 0, err
			}
			vals[i] = s
			pos = npos
		}
		return vals, pos, nil
	case encStrDict:
		dsize, pos, err := readUvarint(data, pos)
		if err != nil {
			return nil, 0, err
		}
		entries := make([]string, dsize)
		for i := range entries {
			entries[i], pos, err = readString(data, pos)
			if err != nil {
				return nil, 0, err
			}
		}
		idx, pos, err := readPacked(data, pos, kept, indexWidth(int(dsize)))
		if err != nil {
			return nil, 0, err
		}
		vals := make([]string, kept)
		for i, id := range idx {
			if id >= dsize {
				return nil, 0, fmt.Errorf("colbatch wire: dict index %d out of range %d", id, dsize)
			}
			vals[i] = entries[id]
		}
		return vals, pos, nil
	default:
		return nil, 0, fmt.Errorf("colbatch wire: bad string encoding %d", enc)
	}
}

// decodeMixed reads n tagged scalar cells.
func decodeMixed(data []byte, pos, n int) (*Column, int, error) {
	cells := make([]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		if pos >= len(data) {
			return nil, 0, fmt.Errorf("colbatch wire: truncated mixed column")
		}
		kind := sqltypes.Kind(data[pos])
		pos++
		switch kind {
		case sqltypes.KindNull:
			cells[i] = sqltypes.Null
		case sqltypes.KindInt:
			v, npos, err := readVarint(data, pos)
			if err != nil {
				return nil, 0, err
			}
			cells[i] = sqltypes.NewInt(v)
			pos = npos
		case sqltypes.KindFloat:
			if pos+8 > len(data) {
				return nil, 0, fmt.Errorf("colbatch wire: truncated mixed float")
			}
			cells[i] = sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
			pos += 8
		case sqltypes.KindString:
			s, npos, err := readString(data, pos)
			if err != nil {
				return nil, 0, err
			}
			cells[i] = sqltypes.NewString(s)
			pos = npos
		case sqltypes.KindBool:
			if pos >= len(data) {
				return nil, 0, fmt.Errorf("colbatch wire: truncated mixed bool")
			}
			cells[i] = sqltypes.NewBool(data[pos] != 0)
			pos++
		default:
			return nil, 0, fmt.Errorf("colbatch wire: bad mixed cell kind %d", kind)
		}
	}
	return &Column{Mixed: cells}, pos, nil
}

// readUvarint reads one uvarint with bounds checking.
func readUvarint(data []byte, pos int) (uint64, int, error) {
	v, sz := binary.Uvarint(data[pos:])
	if sz <= 0 {
		return 0, 0, fmt.Errorf("colbatch wire: bad uvarint at %d", pos)
	}
	return v, pos + sz, nil
}

// readVarint reads one zigzag varint with bounds checking.
func readVarint(data []byte, pos int) (int64, int, error) {
	v, sz := binary.Varint(data[pos:])
	if sz <= 0 {
		return 0, 0, fmt.Errorf("colbatch wire: bad varint at %d", pos)
	}
	return v, pos + sz, nil
}

// readString reads a uvarint-length-prefixed string.
func readString(data []byte, pos int) (string, int, error) {
	l, pos, err := readUvarint(data, pos)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(data)-pos) < l {
		return "", 0, fmt.Errorf("colbatch wire: truncated string")
	}
	return string(data[pos : pos+int(l)]), pos + int(l), nil
}
