//go:build race

package agg

// raceEnabled gates the allocation guard: the race runtime randomizes
// sync.Pool, so pooled buffers are not reliably reused under -race.
const raceEnabled = true
