package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported figure. The summary line carries only Value
// and Unit; the record line adds how it was obtained.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Percentile string  `json:"percentile,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles a tail metric may report,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile in tailPercentiles that has at
// least ten samples beyond it, and its name. With fewer than eleven
// samples no percentile qualifies and the maximum is reported.
func tail(xs []float64) (float64, string) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, "none"
	}
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return s[idx], fmt.Sprintf("p%g", p)
		}
	}
	return s[n-1], "max (fewer than 11 samples)"
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timings collects per-operation latencies by series name, each in
// the unit of the metric it feeds.
type timings map[string][]float64

func (t timings) add(name string, v float64) { t[name] = append(t[name], v) }

// merge appends every series of o to t.
func (t timings) merge(o timings) {
	for k, v := range o {
		t[k] = append(t[k], v...)
	}
}
