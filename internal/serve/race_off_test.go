//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build;
// the allocation gate skips themselves when it does.
const raceEnabled = false
