//go:build race

package registry

// raceOn reports a -race build, under which sync.Pool drops entries at
// random and pooled-buffer allocation counts stop being exact.
const raceOn = true
