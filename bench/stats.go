package main

import "sort"

// quantile returns the q-quantile of v (0 <= q <= 1) by linear
// interpolation between order statistics, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// summarise turns per-sort samples into the metric the result carries:
// their q-quantile, with the sample count and quartiles beside it.
func summarise(v []float64, unit string, q float64) metric {
	return metric{Value: quantile(v, q), Unit: unit, N: len(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
}

// single is a metric measured once per run.
func single(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}
