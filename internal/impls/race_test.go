//go:build race

package impls

// raceEnabled lets allocation-count tests skip under -race: the race
// runtime allocates shadow state on hot paths, so AllocsPerRun is
// meaningless there.
const raceEnabled = true
