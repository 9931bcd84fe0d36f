package sqltypes

import "math"

// Bulk helpers for columnar kernels. They reproduce the scalar Value
// semantics (Compare ordering, Hash bytes) exactly so the vectorized
// execution path stays bit-identical to the row-at-a-time oracle, while
// letting kernels work on whole columns without a Value round trip per
// cell.

// FNV-1a parameters (hash/fnv's 64-bit variant). Value.Hash is built from
// the helpers below, so a hash index, a join table and a column kernel agree
// on every value's bucket.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvUint64LE folds the little-endian bytes of u into h.
func fnvUint64LE(h, u uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (u >> i & 0xff)) * fnvPrime64
	}
	return h
}

// HashNull returns Value.Hash() of the SQL NULL value.
func HashNull() uint64 {
	h := fnvOffset64
	return (h ^ 0) * fnvPrime64
}

// HashInt64 returns Value.Hash() of NewInt(v) without building a Value.
func HashInt64(v int64) uint64 {
	return fnvUint64LE(fnvOffset64, uint64(v))
}

// HashBool returns Value.Hash() of NewBool(v) without building a Value.
func HashBool(v bool) uint64 {
	if v {
		return HashInt64(1)
	}
	return HashInt64(0)
}

// HashFloat64 returns Value.Hash() of NewFloat(f) without building a Value.
// Integral floats in int64 range hash as their integer value so numerically
// equal int/float keys land in the same hash bucket.
func HashFloat64(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return fnvUint64LE(fnvOffset64, uint64(int64(f)))
	}
	return fnvUint64LE(fnvOffset64, math.Float64bits(f))
}

// HashString returns Value.Hash() of NewString(s) without building a Value.
func HashString(s string) uint64 {
	h := fnvOffset64
	h = (h ^ 2) * fnvPrime64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// AppendColumn appends column col of each row to dst and returns the
// extended slice — a gather from row-major storage into a column vector.
func AppendColumn(dst []Value, rows []Row, col int) []Value {
	if cap(dst)-len(dst) < len(rows) {
		grown := make([]Value, len(dst), len(dst)+len(rows))
		copy(grown, dst)
		dst = grown
	}
	for _, r := range rows {
		dst = append(dst, r[col])
	}
	return dst
}

// CompareColumns compares two equal-length column vectors element-wise with
// the scalar Compare ordering (NULLs first, cross-kind numerics, total
// order) and stores each result in out, which is allocated when nil or too
// short. Slices of different lengths panic, like a mis-sized kernel should.
func CompareColumns(a, b []Value, out []int) []int {
	if len(a) != len(b) {
		panic("sqltypes: CompareColumns length mismatch")
	}
	if len(out) < len(a) {
		out = make([]int, len(a))
	}
	out = out[:len(a)]
	for i := range a {
		out[i] = Compare(a[i], b[i])
	}
	return out
}

// HashColumn hashes a column vector element-wise into out (allocated when
// nil or too short): Value.Hash of every cell.
func HashColumn(vals []Value, out []uint64) []uint64 {
	if len(out) < len(vals) {
		out = make([]uint64, len(vals))
	}
	out = out[:len(vals)]
	for i, v := range vals {
		out[i] = v.Hash()
	}
	return out
}
