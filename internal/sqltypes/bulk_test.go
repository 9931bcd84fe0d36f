package sqltypes

import (
	"math"
	"math/rand"
	"testing"
)

// randValue draws from a distribution heavy on edge cases: NULLs, cross-kind
// numeric collisions, NaN, ±0.0, empty and colliding strings.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(10) {
	case 0, 1:
		return Null
	case 2:
		return NewInt(rng.Int63n(16) - 8)
	case 3:
		return NewInt(rng.Int63() - rng.Int63())
	case 4:
		return NewFloat(float64(rng.Int63n(16) - 8)) // collides with ints
	case 5:
		switch rng.Intn(4) {
		case 0:
			return NewFloat(math.NaN())
		case 1:
			return NewFloat(math.Copysign(0, -1))
		case 2:
			return NewFloat(math.Inf(1))
		default:
			return NewFloat(rng.NormFloat64() * 1e6)
		}
	case 6:
		return NewBool(rng.Intn(2) == 0)
	case 7:
		return NewString("")
	default:
		letters := []string{"a", "b", "ab", "ba", "x", "zzz"}
		return NewString(letters[rng.Intn(len(letters))])
	}
}

func TestHashHelpersMatchValueHash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	if got, want := HashNull(), Null.Hash(); got != want {
		t.Fatalf("HashNull() = %d, Value.Hash() = %d", got, want)
	}
	for i := 0; i < 5000; i++ {
		v := randValue(rng)
		var got uint64
		switch v.Kind() {
		case KindNull:
			got = HashNull()
		case KindInt:
			got = HashInt64(v.Int())
		case KindFloat:
			got = HashFloat64(v.Float())
		case KindString:
			got = HashString(v.Str())
		case KindBool:
			got = HashBool(v.Bool())
		}
		if want := v.Hash(); got != want {
			t.Fatalf("typed hash of %v = %d, Value.Hash() = %d", v, got, want)
		}
	}
}

func TestBoolIsKindAware(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NewBool(true), true},
		{NewBool(false), false},
		{NewInt(1), true},
		{NewInt(0), false},
		{NewInt(-3), true},
		{NewFloat(1), true}, // the historical asymmetry this contract fixes
		{NewFloat(0), false},
		{NewFloat(math.Copysign(0, -1)), false},
		{NewFloat(math.NaN()), true},
		{Null, false},
		{NewString("true"), false},
		{NewString(""), false},
	}
	for _, c := range cases {
		if got := c.v.Bool(); got != c.want {
			t.Errorf("%v.Bool() = %v, want %v", c.v, got, c.want)
		}
	}
}
