//go:build race

package storage

// raceHeapMiB is what the race detector adds to the indexed tables' live heap
// that TestGeneratedTableFootprint measures: it turns off the allocator's
// packing of tiny objects, so each hash list of one position takes a block of
// its own (0.19 MiB more at scale 10).
const raceHeapMiB = 0.2
