package colbatch

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// testSchema builds an anonymous schema of n columns (names only; the wire
// layer never looks at types).
func wireSchema(n int) *sqltypes.Schema {
	cols := make([]sqltypes.Column, n)
	for i := range cols {
		cols[i] = sqltypes.Column{Name: string(rune('a' + i%26))}
	}
	return &sqltypes.Schema{Columns: cols}
}

// requireRoundTrip encodes b, decodes it, and requires the decoded batch to
// agree cell for cell (bit-identical floats) with b's logical rows.
func requireRoundTrip(t *testing.T, b *Batch) *Encoded {
	t.Helper()
	enc := Encode(b)
	dec, err := Decode(b.Schema, enc.Data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Len() != b.Len() {
		t.Fatalf("round trip changed row count: %d -> %d", b.Len(), dec.Len())
	}
	if len(dec.Cols) != len(b.Cols) {
		t.Fatalf("round trip changed column count: %d -> %d", len(b.Cols), len(dec.Cols))
	}
	for r := 0; r < b.Len(); r++ {
		for c := range b.Cols {
			want, got := b.Value(r, c), dec.Value(r, c)
			if want.Kind() != got.Kind() {
				t.Fatalf("cell (%d,%d) kind %v -> %v", r, c, want.Kind(), got.Kind())
			}
			if want.Kind() == sqltypes.KindFloat {
				if math.Float64bits(want.Float()) != math.Float64bits(got.Float()) {
					t.Fatalf("cell (%d,%d) float bits diverged: %v -> %v", r, c, want, got)
				}
			} else if want != got {
				t.Fatalf("cell (%d,%d) diverged: %#v -> %#v", r, c, want, got)
			}
			if b.Cols[c].IsNull(b.Phys(r)) != dec.Cols[c].IsNull(dec.Phys(r)) {
				t.Fatalf("cell (%d,%d) null bit diverged", r, c)
			}
		}
	}
	return enc
}

func TestWireRoundTripTyped(t *testing.T) {
	ints := IntColumn([]int64{1, 2, 3, -9, 1 << 40}, nil)
	intsNull := IntColumn([]int64{7, 0, -1, 0, 42}, []bool{false, true, false, true, false})
	floats := FloatColumn([]float64{0, -0.0, math.Pi, math.Inf(1), math.NaN()}, nil)
	strs := StringColumn([]string{"alpha", "beta", "alpha", "", "beta"}, nil)
	strsNull := StringColumn([]string{"x", "", "y", "", "x"}, []bool{false, true, false, true, false})
	bools := BoolColumn([]bool{true, false, true, true, false}, nil)
	nulls := NullColumn()
	cols := []*Column{ints, intsNull, floats, strs, strsNull, bools, nulls}
	b := New(wireSchema(len(cols)), cols, 5)
	enc := requireRoundTrip(t, b)
	if enc.Rows != 5 {
		t.Fatalf("Encoded.Rows = %d, want 5", enc.Rows)
	}
	if len(enc.ColEnc) != len(cols) {
		t.Fatalf("ColEnc has %d labels, want %d", len(enc.ColEnc), len(cols))
	}
}

func TestWireRoundTripEmptyBatch(t *testing.T) {
	b := New(wireSchema(3), []*Column{IntColumn(nil, nil), StringColumn(nil, nil), FloatColumn(nil, nil)}, 0)
	enc := requireRoundTrip(t, b)
	if enc.Rows != 0 {
		t.Fatalf("Encoded.Rows = %d, want 0", enc.Rows)
	}
}

func TestWireRoundTripZeroColumns(t *testing.T) {
	requireRoundTrip(t, New(wireSchema(0), nil, 0))
}

func TestWireRoundTripAllNullTypedColumn(t *testing.T) {
	c := IntColumn([]int64{0, 0, 0}, []bool{true, true, true})
	requireRoundTrip(t, New(wireSchema(1), []*Column{c}, 3))
}

func TestWireRoundTripMixedColumn(t *testing.T) {
	c := NewColumn([]sqltypes.Value{
		sqltypes.NewInt(4), sqltypes.NewString("s"), sqltypes.Null,
		sqltypes.NewFloat(2.5), sqltypes.NewBool(true),
	})
	if c.Mixed == nil {
		t.Fatal("expected a mixed column")
	}
	enc := requireRoundTrip(t, New(wireSchema(1), []*Column{c}, 5))
	if enc.ColEnc[0] != "mixed" {
		t.Fatalf("ColEnc = %q, want mixed", enc.ColEnc[0])
	}
}

// TestWireSelectionCompacted: encoding a batch with a selection vector ships
// only the selected rows, and the receiver sees them contiguous.
func TestWireSelectionCompacted(t *testing.T) {
	ints := IntColumn([]int64{10, 20, 30, 40, 50}, nil)
	strs := StringColumn([]string{"a", "b", "c", "d", "e"}, nil)
	b := NewSelected(wireSchema(2), []*Column{ints, strs}, []int32{4, 1, 3})
	enc := requireRoundTrip(t, b)
	dec, err := Decode(b.Schema, enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Sel != nil {
		t.Fatal("decoded batch still carries a selection vector")
	}
	if got := dec.Value(0, 0).Int(); got != 50 {
		t.Fatalf("selected row 0 = %d, want 50", got)
	}
	full := Encode(New(b.Schema, []*Column{ints, strs}, 5))
	if len(enc.Data) >= len(full.Data) {
		t.Fatalf("3-row selection encoded to %d bytes, full 5 rows to %d", len(enc.Data), len(full.Data))
	}
}

// TestWireEncodesThroughSelection: a selected or windowed batch encodes in
// place to the very bytes (and labels) of its compacted copy, into a buffer
// allocated at exactly the encoded length.
func TestWireEncodesThroughSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 300; it++ {
		full := FromRelation(randRelation(rng, rng.Intn(120)))
		var sel []int32
		for i := 0; i < full.Len(); i++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
		b := full.Select(sel)
		if it%3 == 0 && b.Len() > 2 {
			b = b.Slice(1, b.Len()-1)
		}
		if it%5 == 0 && full.Len() > 2 {
			b = full.Slice(1, full.Len()-1)
		}
		got, want := Encode(b), Encode(b.Materialize())
		if !bytes.Equal(got.Data, want.Data) || strings.Join(got.ColEnc, ",") != strings.Join(want.ColEnc, ",") {
			t.Fatalf("iteration %d: encoding through the selection differs from encoding the compacted batch", it)
		}
		if cap(got.Data) != len(got.Data) {
			t.Fatalf("iteration %d: %d encoded bytes in a buffer of %d", it, len(got.Data), cap(got.Data))
		}
		requireRoundTrip(t, b)
	}
}

// TestWireDictionaryWins: a low-cardinality string column must pick the
// dictionary encoding and beat the plain form.
func TestWireDictionaryWins(t *testing.T) {
	vals := make([]string, 256)
	for i := range vals {
		vals[i] = []string{"promo", "ship", "hold", "back"}[i%4]
	}
	b := New(wireSchema(1), []*Column{StringColumn(vals, nil)}, len(vals))
	enc := Encode(b)
	if enc.ColEnc[0] != "str-dict(4)" {
		t.Fatalf("ColEnc = %q, want str-dict(4)", enc.ColEnc[0])
	}
	requireRoundTrip(t, b)
}

// TestWireDeltaWins: sequential keys must pick the delta encoding.
func TestWireDeltaWins(t *testing.T) {
	vals := make([]int64, 512)
	for i := range vals {
		vals[i] = 1_000_000 + int64(i)
	}
	b := New(wireSchema(1), []*Column{IntColumn(vals, nil)}, len(vals))
	enc := Encode(b)
	if enc.ColEnc[0] != "int-delta" {
		t.Fatalf("ColEnc = %q, want int-delta", enc.ColEnc[0])
	}
	if len(enc.Data) > 2*len(vals) {
		t.Fatalf("sequential ints encoded to %d bytes (> 2B/row)", len(enc.Data))
	}
	requireRoundTrip(t, b)
}

// TestWireCompactVsRowBytes: the encoded form must undercut the row-model
// byte size (ToRelation().ByteSize()) on a realistic analytic batch.
func TestWireCompactVsRowBytes(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	qty := make([]int64, n)
	price := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		qty[i] = int64(i%50) + 1
		price[i] = float64(i) * 1.5
		tags[i] = []string{"promo", "ship", "hold", "back"}[i%4]
	}
	b := New(wireSchema(4), []*Column{
		IntColumn(ids, nil), IntColumn(qty, nil), FloatColumn(price, nil), StringColumn(tags, nil),
	}, n)
	enc := Encode(b)
	raw := b.ToRelation().ByteSize()
	if len(enc.Data)*3 > raw {
		t.Fatalf("encoded %d bytes vs row-model %d: less than 3x reduction", len(enc.Data), raw)
	}
	requireRoundTrip(t, b)
}

func TestWireDecodeRejectsCorruption(t *testing.T) {
	b := New(wireSchema(1), []*Column{IntColumn([]int64{1, 2, 3}, nil)}, 3)
	enc := Encode(b)
	if _, err := Decode(b.Schema, nil); err == nil {
		t.Error("nil buffer decoded")
	}
	if _, err := Decode(b.Schema, []byte{0x00, 0x01}); err == nil {
		t.Error("bad magic decoded")
	}
	if _, err := Decode(b.Schema, []byte{wireMagic, 0x7F}); err == nil {
		t.Error("future version decoded")
	}
	if _, err := Decode(b.Schema, enc.Data[:len(enc.Data)-1]); err == nil {
		t.Error("truncated buffer decoded")
	}
	if _, err := Decode(wireSchema(2), enc.Data); err == nil {
		t.Error("column-count mismatch decoded")
	}
	if _, err := Decode(b.Schema, append(append([]byte{}, enc.Data...), 0xFF)); err == nil {
		t.Error("trailing garbage decoded")
	}
}

// FuzzWireRoundTrip drives Encode/Decode with generated batches: the fuzz
// input seeds a deterministic batch builder covering every column kind,
// null patterns, and selection vectors. Measure must give Encode's length
// and labels without writing, and Decode must never panic on arbitrary
// bytes.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(5), true)
	f.Add([]byte{0xFF, 0x00, 0xAB}, uint16(33), false)
	f.Add([]byte{9, 9, 9, 9}, uint16(200), true)
	f.Fuzz(func(t *testing.T, seed []byte, rows uint16, useSel bool) {
		// Arbitrary bytes into Decode: errors allowed, panics are not.
		_, _ = Decode(nil, seed)

		n := int(rows % 300)
		byteAt := func(i int) byte {
			if len(seed) == 0 {
				return byte(i)
			}
			return seed[i%len(seed)]
		}
		ncols := int(byteAt(0))%6 + 1
		cols := make([]*Column, ncols)
		for c := range cols {
			cells := make([]sqltypes.Value, n)
			for i := 0; i < n; i++ {
				x := byteAt(c*31 + i)
				// Kind choice per column, with one column forced mixed.
				kindSel := byteAt(c+1) % 5
				if c == ncols-1 {
					kindSel = x % 5 // per-cell kind: mixed column
				}
				switch {
				case x%7 == 0:
					cells[i] = sqltypes.Null
				case kindSel == 0:
					cells[i] = sqltypes.NewInt(int64(x)*256 - 1000 + int64(i))
				case kindSel == 1:
					cells[i] = sqltypes.NewFloat(float64(x) / 3.0)
				case kindSel == 2:
					cells[i] = sqltypes.NewString(string(seed)[:int(x)%(len(seed)+1)])
				case kindSel == 3:
					cells[i] = sqltypes.NewBool(x%2 == 0)
				default:
					cells[i] = sqltypes.NewInt(int64(x % 4)) // low cardinality
				}
			}
			cols[c] = NewColumn(cells)
		}
		b := New(wireSchema(ncols), cols, n)
		if useSel && n > 0 {
			sel := make([]int32, 0, n)
			for i := 0; i < n; i++ {
				if byteAt(i)%3 != 0 {
					sel = append(sel, int32(i))
				}
			}
			b = NewSelected(b.Schema, cols, sel)
		}
		enc := requireRoundTrip(t, b)
		// The planning pass alone sizes and labels what Encode writes.
		m := Measure(b)
		if m.Size != len(enc.Data) || m.Size != enc.WireBytes() || m.Data != nil || m.Rows != enc.Rows {
			t.Fatalf("Measure: %d bytes over %d rows (data %v); Encode wrote %d over %d", m.Size, m.Rows, m.Data != nil, len(enc.Data), enc.Rows)
		}
		if strings.Join(m.ColEnc, ",") != strings.Join(enc.ColEnc, ",") {
			t.Fatalf("Measure labels %v, Encode labels %v", m.ColEnc, enc.ColEnc)
		}
	})
}
