//go:build race

package client_test

// raceEnabled skips the allocation gates: the race detector's shadow
// memory shows up in runtime.MemStats.
const raceEnabled = true
