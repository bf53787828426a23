//go:build !race

package impls

const raceEnabled = false
