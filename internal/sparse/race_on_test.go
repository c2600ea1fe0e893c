//go:build race

package sparse

// raceEnabled reports whether the race detector is compiled in; the
// allocation test is skipped under -race because the instrumentation
// itself allocates.
const raceEnabled = true
