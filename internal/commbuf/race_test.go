//go:build race

package commbuf

// raceEnabled gates the allocation-count test: the race runtime
// randomizes sync.Pool (it drops items on purpose).
const raceEnabled = true
