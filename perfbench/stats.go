package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// samples collects one timing per operation.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// tail describes a sample as the guide asks: its median, and the
// highest of the fixed percentiles that still has at least ten samples
// beyond it.
type tail struct {
	n        int
	p50      time.Duration
	pct      float64 // percentile reported as the tail, e.g. 99
	tailVal  time.Duration
	max      time.Duration
	sumTotal time.Duration
}

// tailPercentiles are tried from the highest down; 99 needs 1000 samples.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

func (s samples) summary() tail {
	if len(s) == 0 {
		return tail{}
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	t := tail{n: len(sorted), p50: rank(sorted, 50), max: sorted[len(sorted)-1], pct: 50}
	for _, p := range tailPercentiles {
		if float64(len(sorted))*(100-p)/100 >= 10 {
			t.pct = p
			break
		}
	}
	t.tailVal = rank(sorted, t.pct)
	for _, d := range sorted {
		t.sumTotal += d
	}
	return t
}

// rank is the nearest-rank percentile of a sorted sample.
func rank(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (t tail) String() string {
	return fmt.Sprintf("n=%d p50=%v p%.0f=%v max=%v", t.n, t.p50, t.pct, t.tailVal, t.max)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// geomean is the geometric mean of positive numbers.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// medianWindowTail splits a sample taken at a steady rate into k equal
// consecutive windows and returns the median of the windows' tail
// percentiles, in microseconds: a host slowdown that spoils one window
// does not set the result.
func medianWindowTail(s samples, k int) float64 {
	k = max(1, min(k, len(s)/1000))
	tails := make([]float64, k)
	for i := range k {
		tails[i] = us(s[i*len(s)/k : (i+1)*len(s)/k].summary().tailVal)
	}
	return median(tails)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// interval is a half-open time range in nanoseconds since the trace epoch.
type interval struct{ lo, hi int64 }

// union merges overlapping intervals into a sorted disjoint list.
func union(ivs []interval) []interval {
	s := slices.Clone(ivs)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(disjoint []interval) int64 {
	var n int64
	for _, iv := range disjoint {
		n += iv.hi - iv.lo
	}
	return n
}

// overlap returns the total length covered by both disjoint sorted lists.
func overlap(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}
