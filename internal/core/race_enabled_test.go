//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build; it makes sync.Pool drop items at random, so allocation counts of
// the pooled decode path are only asserted without -race.
const raceEnabled = true
