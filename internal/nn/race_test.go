//go:build race

package nn_test

// raceEnabled lets allocation-count tests skip under -race: the race
// runtime allocates shadow state on hot paths, so heap counters are
// meaningless there.
const raceEnabled = true
