//go:build race

package sphinx

// raceEnabled says the race detector is on: it allocates on its own account,
// so allocation budgets beyond the warm paths' are not held under it.
const raceEnabled = true
