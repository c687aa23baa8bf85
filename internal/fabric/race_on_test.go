//go:build race

package fabric

// raceEnabled says the race detector is on: it allocates on its own account,
// so allocation budgets are not held under it.
const raceEnabled = true
