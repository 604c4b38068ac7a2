//go:build !race

package server

// raceDetector reports a -race build, whose sync.Pool drops a quarter of
// what it is given back.
const raceDetector = false
