//go:build race

package xmltree

// raceOn reports a -race build, under which sync.Pool drops items at
// random, so budgets that rely on a pooled buffer are not checked.
const raceOn = true
