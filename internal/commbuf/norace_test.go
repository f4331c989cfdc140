//go:build !race

package commbuf

const raceEnabled = false
