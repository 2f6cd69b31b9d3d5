//go:build race

package hbserve

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
