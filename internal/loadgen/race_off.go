//go:build !race

package loadgen

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
