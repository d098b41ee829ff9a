//go:build !race

package registry

const raceOn = false
