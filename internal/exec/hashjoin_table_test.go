package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec/colbatch"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// The hash join's table files every key by Value.Hash and compares keys
// before it hashes a hashed row's key. These tests hold it to the row
// kernel's rule (equal hash AND Compare equal) on the cells where comparing
// and hashing could part: int/float twins, ±0, NaN payloads, floats too large
// to tell neighbouring integers apart, and integers near ±2^63.

// Key column kinds the fuzz target draws from.
const (
	joinKeyInt = iota
	joinKeyFloat
	joinKeyString
	joinKeyBool
	joinKeyMixed
	joinKeyKinds
)

var (
	joinInts = []int64{0, 1, 2, 7, -1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
		1 << 53, 1<<53 + 1, 1 << 62, 0x7ff8000000000001, 0x7ff8000000000002}
	joinFloats = []float64{0, math.Copysign(0, -1), 1, 2, 7, 2.5, -1, 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
		math.Float64frombits(0xfff0000000000001)}
	joinStrs = []string{"", "a", "ab", "7", "hello"}
)

// denseBases start the dense key ranges of shape bit 128: around zero, past
// 2^53 (where floats no longer tell neighbouring integers apart) and at either
// end of the int64 range.
var denseBases = []int64{0, -40, 1<<53 - 20, math.MaxInt64 - 299, math.MinInt64}

// denseKeys is an int key range [base, base+span); span 0 draws from the
// palettes alone.
type denseKeys struct{ base, span int64 }

// joinKeyCell draws one key cell of a column of the given kind: a small value
// most of the time, so that keys repeat and buckets fill, else one from the
// palettes above. Under a dense range, an int is drawn from the range, and a
// float is half the time one of its integers.
func joinKeyCell(rng *rand.Rand, kind int, d denseKeys) sqltypes.Value {
	if rng.Intn(8) == 0 {
		return sqltypes.Null
	}
	switch kind {
	case joinKeyInt:
		if d.span != 0 {
			return sqltypes.NewInt(d.base + rng.Int63n(d.span))
		}
		if rng.Intn(2) == 0 {
			return sqltypes.NewInt(rng.Int63n(16) - 8)
		}
		return sqltypes.NewInt(joinInts[rng.Intn(len(joinInts))])
	case joinKeyFloat:
		if d.span != 0 && rng.Intn(2) == 0 {
			return sqltypes.NewFloat(float64(d.base + rng.Int63n(d.span)))
		}
		if rng.Intn(2) == 0 {
			return sqltypes.NewFloat(float64(rng.Int63n(32)-16) / 2)
		}
		return sqltypes.NewFloat(joinFloats[rng.Intn(len(joinFloats))])
	case joinKeyString:
		return sqltypes.NewString(joinStrs[rng.Intn(len(joinStrs))])
	case joinKeyBool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	default:
		return joinKeyCell(rng, rng.Intn(joinKeyMixed), d)
	}
}

// joinSide is a key column of the given kind and an int row number.
func joinSide(rng *rand.Rand, prefix string, kind, n int, d denseKeys) *sqltypes.Relation {
	types := [joinKeyKinds]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBool, sqltypes.KindNull}
	rel := sqltypes.NewRelation(sqltypes.NewSchema(
		sqltypes.Column{Name: prefix + "k", Type: types[kind]}, sqltypes.Column{Name: prefix + "n", Type: sqltypes.KindInt}))
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, sqltypes.Row{joinKeyCell(rng, kind, d), sqltypes.NewInt(int64(i))})
	}
	return rel
}

// hashedWindows cuts rel into batches the way a hashed input yields them:
// filtered windows of one set of columns (a scan under a filter), or, when
// shards is set, batches over a set of columns each, some of them filtered.
func hashedWindows(rng *rand.Rand, rel *sqltypes.Relation, shards bool) []*colbatch.Batch {
	keep := func(b *colbatch.Batch) *colbatch.Batch {
		if rng.Intn(3) == 0 {
			return b
		}
		var sel []int32
		for i := 0; i < b.Len(); i++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, int32(i))
			}
		}
		return b.Select(sel)
	}
	var out []*colbatch.Batch
	if !shards {
		whole := colbatch.FromRelation(rel)
		for _, w := range whole.Windows(1 + rng.Intn(64)) {
			out = append(out, keep(&w))
		}
		return out
	}
	for at := 0; at < len(rel.Rows) || out == nil; {
		n := min(rng.Intn(80), len(rel.Rows)-at)
		out = append(out, keep(colbatch.FromRelation(relOf(rel.Schema, rel.Rows[at:at+n]))))
		at += n
	}
	return out
}

// checkHashJoinTable joins the hashed batches with the streamed relation,
// cut in windows, through the table, and requires the rows, their order and
// the charge of the row kernel over the same two sides.
func checkHashJoinTable(t *testing.T, label string, j *HashJoin, hashed []*colbatch.Batch, streamed *sqltypes.Relation, window int) {
	t.Helper()
	build, probe := colbatch.ToRelation(hashed), streamed
	if j.BuildRight {
		build, probe = probe, build
	}
	var want Context
	wantRel, wantErr := hashJoinRel(j, build, probe, &want)
	if wantErr == nil && j.out.unread != 0 {
		// A finished join: what nothing above it reads is the placeholder,
		// NULL in every row.
		for _, row := range wantRel.Rows {
			for c := range row {
				if j.out.unread.has(c) {
					row[c] = sqltypes.Null
				}
			}
		}
	}

	var got Context
	tab := newHashJoinTable(j, hashed...)
	if len(tab.offs) > 1<<tab.bits+1 {
		t.Fatalf("%s: the table has %d offsets, the hash layout %d", label, len(tab.offs), 1<<tab.bits+1)
	}
	var outs []*colbatch.Batch
	var gotErr error
	for _, w := range colbatch.FromRelation(streamed).Windows(window) {
		out, err := tab.probe(&w, &got)
		if err != nil {
			gotErr = err
			break
		}
		outs = append(outs, out)
	}
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: row kernel err=%v, table err=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	requireRelationsIdentical(t, label, wantRel, colbatch.ToRelation(outs))
	if got.Res != want.Res {
		t.Fatalf("%s: resources %+v, row kernel %+v", label, got.Res, want.Res)
	}
}

// FuzzHashJoinMatchesRowKernel: over random key columns of every kind (ints
// near ±2^63 and their float neighbours, ±0, NaN payloads, the int whose bits
// are a NaN's, strings, bools, NULLs, kind-mixed columns), a hashed side of
// filtered windows over one column set or of batches over several, either
// build side, a bare or a computed hashed key, with and without a residual,
// and the join unfinished (every column gathered) or finished under a tail
// that reads only the hashed side, only the streamed side or neither (shape
// bit 16; the output then reads one side's own columns through a match list
// that must outlive the next streamed window), and int keys drawn from one
// dense range the table addresses directly, met by ints, floats or mixed keys
// (shape bit 128), the table's rows, their order and its charge are the row
// kernel's.
func FuzzHashJoinMatchesRowKernel(f *testing.F) {
	// The shapes of TestVectorizedOracleHashJoinCollisions (six strings
	// against six strings; int keys met by float twins, NaN and -0) and of
	// TestHashJoinBuildRightIsTheSameJoin (the same under a right build).
	f.Add(int64(1500), uint8(joinKeyString*joinKeyKinds+joinKeyString), uint8(0))
	f.Add(int64(1502), uint8(joinKeyInt*joinKeyKinds+joinKeyFloat), uint8(0))
	f.Add(int64(1503), uint8(joinKeyInt*joinKeyKinds+joinKeyFloat), uint8(4))
	f.Add(int64(2000), uint8(joinKeyFloat*joinKeyKinds+joinKeyInt), uint8(1))
	f.Add(int64(2001), uint8(joinKeyMixed*joinKeyKinds+joinKeyMixed), uint8(3))
	f.Add(int64(2002), uint8(joinKeyInt*joinKeyKinds+joinKeyMixed), uint8(5))
	f.Add(int64(2003), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(14))
	// Finished under a tail that reads the hashed side, the streamed side or
	// neither, with either build side, a residual and batches over shards.
	f.Add(int64(2004), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(16))
	f.Add(int64(2005), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(16|32))
	f.Add(int64(2006), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(16|64))
	f.Add(int64(2007), uint8(joinKeyInt*joinKeyKinds+joinKeyFloat), uint8(16|8|1))
	f.Add(int64(2008), uint8(joinKeyString*joinKeyKinds+joinKeyString), uint8(16|32|8|4|1))
	f.Add(int64(2009), uint8(joinKeyMixed*joinKeyKinds+joinKeyInt), uint8(16|64|8|2))
	// Dense int keys, addressed directly, met by ints or (the hash layout
	// built beside the direct one) by floats or mixed keys, under either
	// build side.
	f.Add(int64(3015), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(128))
	f.Add(int64(3001), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(128|1))
	f.Add(int64(3029), uint8(joinKeyInt*joinKeyKinds+joinKeyFloat), uint8(128))
	f.Add(int64(3022), uint8(joinKeyInt*joinKeyKinds+joinKeyFloat), uint8(128|1))
	f.Add(int64(3004), uint8(joinKeyInt*joinKeyKinds+joinKeyMixed), uint8(128|4))
	f.Add(int64(3016), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(128|16|32|2))
	f.Add(int64(3018), uint8(joinKeyInt*joinKeyKinds+joinKeyInt), uint8(128|16|8|1))
	f.Fuzz(func(t *testing.T, seed int64, kinds, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		hkind, skind := int(kinds)/joinKeyKinds%joinKeyKinds, int(kinds)%joinKeyKinds
		hn := rng.Intn(300)
		var dense denseKeys
		if shape&128 != 0 {
			// Mostly fewer keys than hashed rows: a range the table addresses
			// directly, or just past it.
			dense = denseKeys{denseBases[rng.Intn(len(denseBases))], 1 + rng.Int63n(int64(hn)+1)}
		}
		hashedRel := joinSide(rng, "h", hkind, hn, dense)
		streamed := joinSide(rng, "s", skind, rng.Intn(300), dense)
		j := &HashJoin{Build: &Values{Rel: hashedRel}, Probe: &Values{Rel: streamed}, BuildKey: colRef("hk"), ProbeKey: colRef("sk")}
		if shape&1 != 0 {
			j.Build, j.Probe = j.Probe, j.Build
			j.BuildKey, j.ProbeKey = j.ProbeKey, j.BuildKey
			j.BuildRight = true
		}
		hkey := &j.BuildKey
		if j.BuildRight {
			hkey = &j.ProbeKey
		}
		if shape&2 != 0 { // a computed key: concatenated, evaluated, read by logical row
			*hkey = &sqlparser.BinaryExpr{Op: sqlparser.OpMul, Left: *hkey, Right: intLit(1)}
		}
		if shape&8 != 0 {
			j.Residual = &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("hn"), Right: colRef("sn")}
		}
		if shape&16 != 0 {
			// The tail reads one column of one side, or a constant; a residual
			// reads the same side.
			read := [...]sqlparser.Expr{colRef("hn"), colRef("sn"), intLit(1)}[int(shape>>5)%3]
			if j.Residual != nil {
				j.Residual = &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: read, Right: intLit(3)}
			}
			finishPlan(&Project{Input: j, Items: []sqlparser.SelectItem{{Alias: "x", Expr: read}}}, j, nil)
		}
		hashed := hashedWindows(rng, hashedRel, shape&4 != 0)
		checkHashJoinTable(t, fmt.Sprintf("seed %d kinds %d/%d shape %d", seed, hkind, skind, shape), j, hashed, streamed, 1+rng.Intn(100))
	})
}

// TestHashJoinPairsNaNWithTheIntOfItsBits: Compare calls NaN equal to every
// number, so the row kernel pairs a NaN with the integer that shares its hash
// — the one whose eight bytes are the NaN's — and with nothing else. The
// kinds differ, so the key-equal candidate must still pass the hash check:
// the NaN's neighbour, and a float of 2^60 (which 2^60+1 rounds to, but which
// hashes as 2^60), must find nothing.
func TestHashJoinPairsNaNWithTheIntOfItsBits(t *testing.T) {
	bits := int64(0x7ff8000000000001)
	hashed := intKeys("h", 6, func(i int) int64 { return []int64{5, bits, 1<<60 + 1, bits, 0, 1<<60 - 1}[i] })
	streamed := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: "s", Type: sqltypes.KindFloat}))
	for _, f := range []float64{math.Float64frombits(uint64(bits)), math.Float64frombits(uint64(bits) + 1), 1 << 60, 5, math.Copysign(0, -1)} {
		streamed.Rows = append(streamed.Rows, sqltypes.Row{sqltypes.NewFloat(f)})
	}
	for _, buildRight := range []bool{false, true} {
		j := &HashJoin{Build: &Values{Rel: hashed}, Probe: &Values{Rel: streamed}, BuildKey: colRef("h"), ProbeKey: colRef("s")}
		hashedSide := colbatch.FromRelation(hashed)
		if buildRight {
			j = &HashJoin{Build: &Values{Rel: streamed}, Probe: &Values{Rel: hashed}, BuildKey: colRef("s"), ProbeKey: colRef("h"), BuildRight: true}
		}
		checkHashJoinTable(t, fmt.Sprintf("build right %v", buildRight), j, []*colbatch.Batch{hashedSide}, streamed, 2)
		out, err := newHashJoinTable(j, hashedSide).probeBatch(colbatch.FromRelation(streamed))
		if err != nil || out.Len() != 4 {
			t.Fatalf("build right %v: %d rows, err %v; want the NaN with both copies of its bits, 5 = 5.0 and 0 = -0.0", buildRight, out.Len(), err)
		}
	}
}

// keyRel is a one-column relation of the given key cells, declared of kind.
func keyRel(name string, kind sqltypes.Kind, keys ...sqltypes.Value) *sqltypes.Relation {
	rel := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: name, Type: kind}))
	for _, k := range keys {
		rel.Rows = append(rel.Rows, sqltypes.Row{k})
	}
	return rel
}

// TestHashJoinDirectLayout: a typed int hashed key whose non-NULL keys span
// fewer values than the hash layout has buckets (8 rows: 8 buckets, keys 0–7)
// is addressed directly; a range one past that bound, a side holding both
// MinInt64 and MaxInt64 (hi − lo overflows an int64) and an all-NULL key keep
// the hash layout. Either way, under either build side, the rows, their order
// and the charge are the row kernel's.
func TestHashJoinDirectLayout(t *testing.T) {
	ints := func(keys ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, len(keys))
		for i, k := range keys {
			out[i] = sqltypes.NewInt(k)
		}
		return out
	}
	streamed := keyRel("s", sqltypes.KindInt, append(ints(math.MinInt64, math.MaxInt64, -1, 9, 8), ints(7, 0, 3, 3, 4, 1, 2, 6, 5, 0, 7)...)...)
	streamed.Rows = append(streamed.Rows, sqltypes.Row{sqltypes.Null})
	selectedNulls := colbatch.FromRelation(keyRel("h", sqltypes.KindInt, sqltypes.Null, sqltypes.NewInt(5), sqltypes.Null, sqltypes.Null)).Select([]int32{0, 2, 3})
	for _, c := range []struct {
		name   string
		hashed *colbatch.Batch
		direct bool
	}{
		{"keys 0-7 in 8 rows", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, ints(7, 3, 0, 5, 3, 1, 2, 6)...)), true},
		{"keys 0-7 and NULLs in 8 rows", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, append(ints(7, 0, 3, 3, 7, 0), sqltypes.Null, sqltypes.Null)...)), true},
		{"one key", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, ints(3)...)), true},
		{"keys 0-8 in 8 rows", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, ints(8, 3, 0, 5, 3, 1, 2, 6)...)), false},
		{"MaxInt64, 0 and MinInt64", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, ints(math.MaxInt64, 0, math.MinInt64, 0)...)), false},
		{"MinInt64 then MaxInt64", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, ints(math.MinInt64, math.MaxInt64, 0, 0)...)), false},
		{"a NULL column", colbatch.FromRelation(keyRel("h", sqltypes.KindInt, sqltypes.Null, sqltypes.Null)), false},
		{"an int column read only where NULL", selectedNulls, false},
	} {
		hashed := colbatch.ToRelation([]*colbatch.Batch{c.hashed})
		for _, buildRight := range []bool{false, true} {
			j := &HashJoin{Build: &Values{Rel: hashed}, Probe: &Values{Rel: streamed}, BuildKey: colRef("h"), ProbeKey: colRef("s")}
			if buildRight {
				j = &HashJoin{Build: &Values{Rel: streamed}, Probe: &Values{Rel: hashed}, BuildKey: colRef("s"), ProbeKey: colRef("h"), BuildRight: true}
			}
			label := fmt.Sprintf("%s, build right %v", c.name, buildRight)
			if got := newHashJoinTable(j, c.hashed).direct != nil; got != c.direct {
				t.Fatalf("%s: direct %v, want %v", label, got, c.direct)
			}
			checkHashJoinTable(t, label, j, []*colbatch.Batch{c.hashed}, streamed, 3)
		}
	}
}

// TestHashJoinDirectTableBuildsTheHashLayoutOnce: a direct table probed by a
// float batch pairs it by hash (2.0 with 2, -0.0 with 0; 2.5, NaN and 2^60
// with nothing) through the hash layout it builds beside the direct one;
// the int batch after it probes directly, and a second float batch reuses the
// hash layout the first one built. Each batch's rows are the row kernel's.
func TestHashJoinDirectTableBuildsTheHashLayoutOnce(t *testing.T) {
	hashed := intKeys("h", 64, func(i int) int64 { return int64(i / 2) })
	floats := keyRel("s", sqltypes.KindFloat, sqltypes.NewFloat(2), sqltypes.NewFloat(2.5), sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(31), sqltypes.NewFloat(1<<60), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.Null)
	ints := intKeys("s", 12, func(i int) int64 { return int64(3*i - 4) })
	j := &HashJoin{Build: &Values{Rel: hashed}, Probe: &Values{Rel: floats}, BuildKey: colRef("h"), ProbeKey: colRef("s")}
	tab := newHashJoinTable(j, colbatch.FromRelation(hashed))
	if tab.direct == nil {
		t.Fatal("64 rows keyed 0-31 did not make a direct table")
	}
	var hoffs *int32
	for step, streamed := range []*sqltypes.Relation{floats, ints, floats} {
		out, err := tab.probe(colbatch.FromRelation(streamed), &Context{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := hashJoinRel(j, hashed, streamed, &Context{})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("batch %d", step)
		requireRelationsIdentical(t, label, want, colbatch.ToRelation([]*colbatch.Batch{out}))
		if tab.direct.hoffs == nil {
			t.Fatalf("%s: a float batch left the direct table without a hash layout", label)
		}
		if hoffs == nil {
			hoffs = &tab.direct.hoffs[0]
		} else if &tab.direct.hoffs[0] != hoffs {
			t.Fatalf("%s: the hash layout was built again", label)
		}
	}
}

// TestHashJoinStreamsOddFloatsAgainstAnIntTable: NaN payloads, ±Inf and
// floats of 2^53 or more streamed against a large int table pair only within
// their own bucket, as the row kernel's map does. Rows, order and charge
// match the row kernel's. A probe that passed over the hashed rows for each
// such cell would make this join quadratic: about 2^28 cell comparisons.
func TestHashJoinStreamsOddFloatsAgainstAnIntTable(t *testing.T) {
	const rows = 1 << 15
	hashed := intKeys("h", rows, func(i int) int64 {
		if i%2 == 0 {
			return int64(i)
		}
		return 0x7ff8000000000000 + int64(i) // the bits of a NaN payload
	})
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1 << 60, -(1 << 62), 1 << 63}
	streamed := sqltypes.NewRelation(sqltypes.NewSchema(sqltypes.Column{Name: "s", Type: sqltypes.KindFloat}))
	for i := 0; i < rows/4; i++ {
		f := odd[i%len(odd)]
		if i%7 == 0 {
			f = math.Float64frombits(0x7ff8000000000000 + uint64(i)) // pairs with the int of its bits when i is odd
		}
		streamed.Rows = append(streamed.Rows, sqltypes.Row{sqltypes.NewFloat(f)})
	}
	for _, buildRight := range []bool{false, true} {
		j := &HashJoin{Build: &Values{Rel: hashed}, Probe: &Values{Rel: streamed}, BuildKey: colRef("h"), ProbeKey: colRef("s")}
		if buildRight {
			j = &HashJoin{Build: &Values{Rel: streamed}, Probe: &Values{Rel: hashed}, BuildKey: colRef("s"), ProbeKey: colRef("h"), BuildRight: true}
		}
		checkHashJoinTable(t, fmt.Sprintf("build right %v", buildRight), j, []*colbatch.Batch{colbatch.FromRelation(hashed)}, streamed, scanWindow)
	}
}

// TestHashJoinTableHoldsOnlyPositions: over a filtered scan's windows the
// table is a 4 B position per hashed row and a 4 B offset per bucket and one
// more — no key hashes, no links, and the windows are not joined into one
// selection first — and probing a streamed window allocates its two match
// lists (two int32 positions, 8 B a row, once) but no hash per row.
func TestHashJoinTableHoldsOnlyPositions(t *testing.T) {
	const rows = 16 * scanWindow
	hashedRel := intKeys("h", rows, func(i int) int64 { return int64(i) })
	streamedRel := intKeys("s", scanWindow, func(i int) int64 { return -1 - int64(i) }) // matches nothing
	hashedOp := &Filter{Input: &SeqScan{Table: storedTable(t, "h", hashedRel), As: "h"},
		Pred: &sqlparser.BinaryExpr{Op: sqlparser.OpNe, Left: colRef("h"), Right: intLit(7)}}
	streamedOp := &SeqScan{Table: storedTable(t, "s", streamedRel), As: "s"}
	join := &HashJoin{Build: hashedOp, Probe: streamedOp, BuildKey: colRef("h"), ProbeKey: colRef("s")}
	finishPlan(join, join, nil)
	batches := func(op Operator) func() {
		return func() {
			if _, err := ExecuteBatches(op, &Context{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inputs := leastAllocated(batches(hashedOp)) + leastAllocated(batches(streamedOp))
	whole := leastAllocated(func() {
		out, err := ExecuteVectorized(join, &Context{})
		if err != nil || out.Len() != 0 {
			t.Fatalf("the join returned %v rows, err %v; want none", out, err)
		}
	})
	buckets := uint64(1)
	for buckets < rows-1 {
		buckets <<= 1
	}
	table := 4*uint64(rows-1) + 4*(buckets+1)
	lists := 8 * uint64(scanWindow)
	// 16 KiB covers the table's header, the output's and the rounding of
	// the offsets to whole pages; a hash per streamed row would be 16 KiB.
	if limit := table + lists + 16<<10; whole-inputs > limit {
		t.Fatalf("the join allocated %d bytes beyond its inputs' %d; the table is %d, the streamed window's match lists %d, and the budget %d", whole-inputs, inputs, table, lists, limit)
	}
}
