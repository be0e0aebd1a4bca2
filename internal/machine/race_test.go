//go:build race

package machine

// The race detector's instrumentation changes which values escape to
// the heap, so allocation counts taken under it are not the program's.
func init() { raceEnabled = true }
