package stats

import (
	"math/bits"
	"unsafe"
)

// hashSet counts distinct 64-bit hashes: one flat open-addressing table sized
// once for at most m insertions (a power of two, load at most 7/8, so a probe
// always reaches an empty slot), probed linearly from the top bits of the
// Fibonacci-multiplied hash. An empty slot holds 0, so hash 0 is a flag of its
// own. Keys are compared with ==: count is the number of distinct hashes
// added, exactly what a map[uint64]struct{} would hold.
type hashSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	zero  bool // hash 0 was added
	n     int  // distinct non-zero hashes added
}

func newHashSet(m int) hashSet {
	size := 1
	for size*7 < m*8 {
		size <<= 1
	}
	return hashSet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

func (s *hashSet) add(h uint64) {
	if h == 0 {
		s.zero = true
		return
	}
	mask := uint64(len(s.slots) - 1)
	// A shift by 64 (one slot) yields 0 in Go.
	for i := (h * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h
			s.n++
			return
		case h:
			return
		}
	}
}

func (s *hashSet) count() int64 {
	if s.zero {
		return int64(s.n) + 1
	}
	return int64(s.n)
}

// floats hands over the slots, once the count is taken, as room for m
// float64s (the set holds more than m slots): BuildHistogram then selects in
// the memory the count used. The set is not used again.
func (s *hashSet) floats(m int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s.slots))), len(s.slots))[:0:m]
}
