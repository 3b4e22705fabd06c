//go:build !race

package runtime

// raceEnabled reports a -race build, whose instrumentation adds
// allocations of its own to the allocation pins.
const raceEnabled = false
