//go:build race

package serve

// raceEnabled gates the allocation-count guard: the race runtime
// deliberately randomizes sync.Pool behavior (dropping items to stress
// code paths), so per-op allocation counts are meaningless under -race.
const raceEnabled = true
