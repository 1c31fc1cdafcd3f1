//go:build race

package loadgen

// raceEnabled reports whether this binary was built with -race.
// BuildServe propagates it to the child processes so a
// race-enabled harness run race-checks the whole topology.
const raceEnabled = true
