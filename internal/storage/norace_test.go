//go:build !race

package storage

// raceHeapMiB is zero without the race detector (see race_test.go).
const raceHeapMiB = 0
