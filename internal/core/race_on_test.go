//go:build race

package core

// raceOn reports a -race build, whose instrumentation changes what escapes
// to the heap, so exact allocation budgets are not checked under it.
const raceOn = true
