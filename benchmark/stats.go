package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least q·n samples at or below it, xs[ceil(q·n)-1] in
// sorted order. It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(q, len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile in n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples must lie above a percentile before it
// is reported: with fewer, the percentile is one or two unlucky samples.
const minBeyond = 10

// reportable applies the rule that a percentile is reported only when
// at least minBeyond samples lie above it.
func reportable(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// tailQuantiles are the tail percentiles tried, highest first.
var tailQuantiles = []float64{0.99, 0.9, 0.75, 0.5}

// tail returns the highest of tailQuantiles that n samples can report,
// or false when not even the median has minBeyond samples above it.
func tail(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if reportable(q, n) {
			return q, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (the default of Python's
// statistics.quantiles(xs, n=4)), which is how run-to-run spread is
// judged. It needs at least two samples; with fewer every value is the
// single sample (or NaN).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its
// children cover. Children may overlap each other (concurrent work) or
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
