//go:build race

package loadgen

// RaceEnabled reports whether this binary was built with -race.
// BuildServe propagates it to the child processes so a
// race-enabled harness run race-checks the whole topology.
const RaceEnabled = true
