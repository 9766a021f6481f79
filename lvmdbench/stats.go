package main

import (
	"math"
	"sort"
	"time"
)

// Percentiles are exact, from raw per-op samples (nearest rank): never
// histogram bucket bounds.

func sortedMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLevel is the percentile reported as "p99": 0.99 when at least ten
// samples lie beyond it, otherwise the highest level that keeps ten
// samples beyond.
func tailLevel(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// windowed splits a phase's samples by due time into equal windows of
// at least half a second that each hold at least a thousand samples (so
// a window's p99 has ten beyond it), and returns each window's
// latencies sorted, in ms. The window count depends only on the phase's
// rate and length, so it is the same on every run of a workload.
func windowed(samples []sample) [][]float64 {
	if len(samples) == 0 {
		return nil
	}
	var span time.Duration
	for _, s := range samples {
		span = max(span, s.at)
	}
	n := min(len(samples)/1000, int(span/(500*time.Millisecond)))
	if n < 1 {
		n = 1
	}
	w := span/time.Duration(n) + 1
	out := make([][]time.Duration, n)
	for _, s := range samples {
		i := int(s.at / w)
		out[i] = append(out[i], s.lat)
	}
	sorted := make([][]float64, n)
	for i, v := range out {
		sorted[i] = sortedMS(v)
	}
	return sorted
}

// acrossWindows estimates a latency percentile robustly: the
// q-quantile of each window, then the `across`-quantile of those. The
// reported figures take the lower quartile across windows. On the
// reference host, descheduled vCPUs and other tenants' disk traffic
// stall a varying share of each run's windows. The quartile of windows
// they disturbed least repeats from run to run, while a change to lvmd
// moves every window. The ladder takes the median: an overload's backlog
// grows through a step and so reaches most of its windows.
func acrossWindows(samples []sample, q, across float64) float64 {
	var per []float64
	for _, w := range windowed(samples) {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	sort.Float64s(per)
	return quantile(per, across)
}

func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
