package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (nearest rank) of xs, which need not
// be sorted; xs is left unchanged. 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// segmentedPercentile splits xs (in arrival order) into segs contiguous
// segments, takes the q-quantile of each and returns the median of those:
// one host stall lands in one segment and cannot set the reported number.
func segmentedPercentile(xs []float64, segs int, q float64) float64 {
	if len(xs) < segs {
		return percentile(xs, q)
	}
	per := make([]float64, segs)
	for i := range per {
		per[i] = percentile(xs[len(xs)*i/segs:len(xs)*(i+1)/segs], q)
	}
	return median(per)
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the steadiness measure the compare tool
// holds against a metric's bound. Quartiles use the exclusive method
// (Python's statistics.quantiles default). 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	quart := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := quart(2)
	if med == 0 {
		return 0
	}
	return math.Abs((quart(3) - quart(1)) / med)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
