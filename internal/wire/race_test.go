//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in. Under
// it, sync.Pool deliberately drops a random share of Puts, so pooled
// paths refill from New and zero-allocation claims cannot hold.
const raceEnabled = true
