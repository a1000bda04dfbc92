//go:build !race

package planner_test

// raceEnabled is whether the tests run under the race detector.
const raceEnabled = false
