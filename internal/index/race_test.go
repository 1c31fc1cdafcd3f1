//go:build race

package index

// Under -race sync.Pool drops a share of what it is given, so the
// scorer's warm-pool allocation budget does not hold.
func init() { raceEnabled = true }
