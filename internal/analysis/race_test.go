//go:build race

package analysis

// Under -race sync.Pool drops a share of what it is given, so the
// allocation ceilings do not hold.
func init() { raceEnabled = true }
