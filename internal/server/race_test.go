//go:build race

package server

func init() { raceDetector = true }
