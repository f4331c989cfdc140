//go:build long

package experiments

import "testing"

// TestMidRunGoroutineResidency16384 is the full-size mid-run residency
// guard (see midRunGoroutineResidency); CI runs it with -tags long.
func TestMidRunGoroutineResidency16384(t *testing.T) { midRunGoroutineResidency(t, 16384) }
