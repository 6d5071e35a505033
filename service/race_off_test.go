//go:build !race

package service

// raceEnabled reports whether tests run under the race detector.
const raceEnabled = false
