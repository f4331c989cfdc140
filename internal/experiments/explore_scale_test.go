//go:build !long

package experiments

// exploreScale multiplies TestScheduleExploration's schedules per program;
// the long tier (explore_long_test.go) runs 100× as many.
const exploreScale = 1
