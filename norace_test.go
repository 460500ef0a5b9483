//go:build !race

package egwalker

const raceEnabled = false
