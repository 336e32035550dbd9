//go:build !race

package confanon

// raceEnabled reports whether the test binary was built with -race; the
// race detector's instrumentation adds allocations of its own.
const raceEnabled = false
