package main

import "testing"

// Flat and packed leaves must compute the oracle's outputs exactly.
func TestAnalyticsJobMatchesOracle(t *testing.T) {
	in := genAnalytics(3, 1<<12)
	want := analyticsOracle(in)
	for _, packed := range []bool{false, true} {
		got, _, _ := analyticsJob(nil, 1, analyticsOptions(packed), in)
		out := newOutcome()
		compareJob(out, got, want)
		if out.failed != 0 || got.digest() != want.digest() {
			t.Errorf("packed=%v: %d of %d outputs differ from the oracle", packed, out.failed, out.attempted)
		}
	}
}
