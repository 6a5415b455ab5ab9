//go:build race

package harness

func init() { raceEnabled = true }
