//go:build race

package comm_test

// raceEnabled gates the allocation- and memory-count guards: the race
// runtime randomizes sync.Pool behavior and inflates every allocation, so
// the counts are meaningless under -race.
const raceEnabled = true
