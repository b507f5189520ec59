package main

import "testing"

// The same seed must give the same inputs and another seed other
// inputs, so that two builds measured on one seed see identical work.
func TestSeedDeterminesInputs(t *testing.T) {
	digests := map[string]func(seed uint64) string{
		"analytics": func(seed uint64) string { return genAnalytics(seed, 1<<10).digest() },
		"durable_kv": func(seed uint64) string {
			return kvDigest(seed, genKVPreload(seed, 1<<10, 1<<12), 1<<12, 2)
		},
		"spatial": func(seed uint64) string { return spatialDigest(seed, genPoints(seed, 1<<10)) },
	}
	for name, digest := range digests {
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}
