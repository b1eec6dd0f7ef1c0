//go:build race

package jpegact

func init() { raceEnabled = true }
