//go:build race

package egwalker

// raceEnabled: sync.Pool drops a quarter of what it is handed under the
// race detector, so the guards on what a pooled decoder saves skip there.
const raceEnabled = true
