//go:build !race

package sphinx

// raceEnabled says the race detector is on (see race_on_test.go).
const raceEnabled = false
