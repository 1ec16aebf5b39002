package game

import "fairtask/internal/vdps"

// SetCountStrategies makes f the state's list-length count until the
// returned function restores the original.
func SetCountStrategies(f func(*vdps.Generator) []int) (restore func()) {
	old := countStrategies
	countStrategies = f
	return func() { countStrategies = old }
}
