package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts) and
// how many samples lie strictly beyond it. An empty input gives NaN.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs) - 1 - i
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// percentile is quantile gated on minBeyond: ok is false when too few
// samples lie beyond the requested percentile to report it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	v, beyond := quantile(append([]float64(nil), xs...), q)
	return v, beyond >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// near reports whether got matches want within 1e-3 absolute (°C for
// temperatures) or 1e-3 relative.
func near(got, want float64) bool {
	d := math.Abs(got - want)
	return d <= 1e-3 || d <= 1e-3*math.Abs(want)
}
