//go:build race

package mirage

// The race detector makes sync.Pool drop what is put back at random, so
// an allocation count that counts on pooled wakers does not hold under it.
func init() { raceEnabled = true }
