//go:build !race

package xmltree

const raceOn = false
