//go:build !race

package fabric

// raceEnabled says the race detector is on (see race_on_test.go).
const raceEnabled = false
