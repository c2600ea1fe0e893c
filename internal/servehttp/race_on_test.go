//go:build race

package servehttp

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates are skipped under -race because the instrumentation
// itself allocates.
const raceEnabled = true
