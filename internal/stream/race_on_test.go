//go:build race

package stream

// raceEnabled reports that this binary was built with -race, under
// which sync.Pool drops items at random; the signature alloc pin skips
// itself then.
const raceEnabled = true
