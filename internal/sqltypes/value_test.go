package sqltypes

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins the layout: a kind, one payload word and a string
// header. Every boxed cell, resident row and wire-decoded value pays it.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestPayloadWordRoundTrip covers the values whose bit pattern is easy to
// lose when an int and a float share one word.
func TestPayloadWordRoundTrip(t *testing.T) {
	for _, i := range []int64{math.MinInt64, math.MaxInt64, -1, 0, 1} {
		v := NewInt(i)
		if v.Int() != i || v.Float() != float64(i) || v.Bool() != (i != 0) {
			t.Errorf("NewInt(%d): Int=%d Float=%g Bool=%v", i, v.Int(), v.Float(), v.Bool())
		}
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		v := NewFloat(f)
		if math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%g): bits %x, want %x", f, math.Float64bits(v.Float()), math.Float64bits(f))
		}
		if v.Int() != 0 {
			t.Errorf("NewFloat(%g).Int() = %d, want 0 (Int reads 0 for every kind but int and bool)", f, v.Int())
		}
		if v.Bool() != (f != 0) {
			t.Errorf("NewFloat(%g).Bool() = %v", f, v.Bool())
		}
	}
	if Compare(NewFloat(0), NewFloat(negZero)) != 0 || NewFloat(0).Hash() != NewFloat(negZero).Hash() {
		t.Error("+0 and -0 must compare equal and share a hash bucket")
	}
	if NewString("x").Int() != 0 || Null.Int() != 0 {
		t.Error("Int() of a string or NULL must read 0")
	}
}

// fnvHash is Value.Hash as it was first written, over hash/fnv: the
// reference the allocation-free Hash must keep reproducing, because hash
// indexes, join tables and group tables are all keyed by it.
func fnvHash(v Value) uint64 {
	h := fnv.New64a()
	word := func(u uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case KindNull:
		h.Write([]byte{0})
	case KindInt, KindBool:
		word(uint64(v.Int()))
	case KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			word(uint64(int64(f)))
		} else {
			word(math.Float64bits(f))
		}
	case KindString:
		h.Write([]byte{2})
		h.Write([]byte(v.Str()))
	}
	return h.Sum64()
}

func TestHashKeepsItsValuesAndDoesNotAllocate(t *testing.T) {
	literals := []Value{Null, NewInt(-7), NewFloat(2.5), NewFloat(41), NewString("S3"), NewBool(true)}
	for _, v := range literals {
		if got, want := v.Hash(), fnvHash(v); got != want {
			t.Errorf("Hash(%v) = %d, the hash/fnv reference gives %d", v, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { v.Hash() }); allocs != 0 {
			t.Errorf("Hash(%v) allocates %.0f times per call", v, allocs)
		}
	}
	if NewInt(41).Hash() != NewFloat(41).Hash() {
		t.Error("41 and 41.0 are join-equal and must collide")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		if v := randValue(rng); v.Hash() != fnvHash(v) {
			t.Fatalf("Hash(%v) = %d, the hash/fnv reference gives %d", v, v.Hash(), fnvHash(v))
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if got := NewInt(42); got.Kind() != KindInt || got.Int() != 42 {
		t.Fatalf("NewInt: got %v", got)
	}
	if got := NewFloat(2.5); got.Kind() != KindFloat || got.Float() != 2.5 {
		t.Fatalf("NewFloat: got %v", got)
	}
	if got := NewString("ab"); got.Kind() != KindString || got.Str() != "ab" {
		t.Fatalf("NewString: got %v", got)
	}
	if got := NewBool(true); got.Kind() != KindBool || !got.Bool() {
		t.Fatalf("NewBool: got %v", got)
	}
	if got := NewBool(false); got.Bool() {
		t.Fatalf("NewBool(false): got %v", got)
	}
}

func TestValueFloatWidening(t *testing.T) {
	if NewInt(7).Float() != 7.0 {
		t.Fatal("int should widen to float")
	}
	if NewBool(true).Float() != 1.0 {
		t.Fatal("bool should widen to float 1")
	}
	if Null.Float() != 0 {
		t.Fatal("null floats to 0")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(1.5), NewInt(1), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Fatal("NULL must not equal NULL")
	}
	if Equal(Null, NewInt(0)) {
		t.Fatal("NULL must not equal 0")
	}
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Fatal("3 must equal 3.0")
	}
}

func TestHashCrossKindNumericConsistency(t *testing.T) {
	if NewInt(41).Hash() != NewFloat(41).Hash() {
		t.Fatal("41 and 41.0 must hash equal for join correctness")
	}
	if NewString("x").Hash() == NewString("y").Hash() {
		t.Fatal("expected distinct hashes for distinct strings (fnv collision would be astonishing)")
	}
}

func TestHashEqualImpliesEqualHashProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if Equal(va, vb) {
			return va.Hash() == vb.Hash()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := NewFloat(a), NewFloat(b), NewFloat(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-5), "-5"},
		{NewFloat(1.5), "1.5"},
		{NewString("o'hare"), "'o''hare'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v)=%q want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "INTEGER" || KindNull.String() != "NULL" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestByteSize(t *testing.T) {
	if NewInt(1).ByteSize() != 8 {
		t.Fatal("int size")
	}
	if NewString("abc").ByteSize() != 5 {
		t.Fatal("string size = 2+len")
	}
	if Null.ByteSize() != 1 || NewBool(true).ByteSize() != 1 {
		t.Fatal("null/bool size")
	}
}
