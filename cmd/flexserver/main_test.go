package main

import "testing"

// TestResolveSeed: -seed 0 draws a fresh seed per resolution (so two
// process lives never share a noise sequence), and an explicit seed passes
// through unchanged.
func TestResolveSeed(t *testing.T) {
	if a, b := resolveSeed(0), resolveSeed(0); a == b {
		t.Fatalf("two resolutions of seed 0 both gave %d", a)
	}
	for _, seed := range []int64{1, -7, 42} {
		if got := resolveSeed(seed); got != seed {
			t.Errorf("resolveSeed(%d) = %d, want it unchanged", seed, got)
		}
	}
}
