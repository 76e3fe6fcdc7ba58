package main

import "sort"

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// tail is the q-quantile when at least ten samples lie beyond it, else
// 0: a percentile the sample cannot support is not reported.
func tail(sorted []float64, q float64) float64 {
	if float64(len(sorted))*(1-q) < 10 {
		return 0
	}
	return quantile(sorted, q)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
