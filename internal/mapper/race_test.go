//go:build race

package mapper

func init() { raceEnabled = true }
