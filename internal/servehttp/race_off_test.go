//go:build !race

package servehttp

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
