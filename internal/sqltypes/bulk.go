package sqltypes

import "math"

// Typed hash helpers for columnar kernels. They reproduce Value.Hash's bytes
// exactly so the vectorized execution path stays bit-identical to the
// row-at-a-time oracle, while letting kernels hash typed cells without
// building a Value per cell.

// FNV-1a parameters (hash/fnv's 64-bit variant). Value.Hash is built from
// the helpers below, so a hash index, a join table and a column kernel agree
// on every value's bucket.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvUint64LE folds the little-endian bytes of u into h. It is unrolled by
// hand: the compiler keeps the loop form, which hashes at half the speed.
func fnvUint64LE(h, u uint64) uint64 {
	h = (h ^ (u & 0xff)) * fnvPrime64
	h = (h ^ (u >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (u >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (u >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (u >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (u >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (u >> 48 & 0xff)) * fnvPrime64
	return (h ^ (u >> 56)) * fnvPrime64
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
