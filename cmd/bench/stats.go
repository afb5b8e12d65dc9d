package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile of sorted by the "exclusive" rule of
// Python's statistics.quantiles: position p·(n+1) counted from 1, linear
// between neighbours, clamped to the smallest and largest sample. The
// benchmark's acceptance check computes quartiles that way, so the
// report's quartiles match it.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	j := int(pos)
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// summary is a sample's count, smallest value, quartiles and median.
type summary struct {
	N                   int
	Min, Q1, Median, Q3 float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Min: quantile(s, 0), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tailReportable applies the rule that a percentile is reported only
// where at least ten samples lie beyond it. p is handled in permille so
// that 0.9 and 0.99 count exactly (n·(1−p) in floating point is 9.99… for
// n=100, p=0.9).
func tailReportable(n int, p float64) bool {
	beyond := n * (1000 - int(math.Round(p*1000))) / 1000
	return beyond >= 10
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

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

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// step is one rate of the open-loop ladder.
type step struct {
	Rate   float64 // offered requests per second
	Due    int     // requests scheduled in the step
	Sent   int     // requests sent before the step ended
	Failed int     // non-200, transport error, or wrong value
	// OverLimit counts sent requests whose latency from their due time
	// exceeded the SLO limit.
	OverLimit int
}

// meetsSLO reports whether the step kept p99 latency within the limit
// with no failures: at most 1% of the due requests may miss the limit,
// and a request not sent before the step ended misses it.
func (s step) meetsSLO() bool {
	missed := s.OverLimit + (s.Due - s.Sent)
	return s.Failed == 0 && s.Due > 0 && missed*100 <= s.Due
}

// maxRateAtSLO is the highest offered rate such that it and every lower
// step met the SLO; 0 when even the lowest step missed it. Steps must be
// in ascending rate order.
func maxRateAtSLO(steps []step) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meetsSLO() {
			break
		}
		best = s.Rate
	}
	return best
}
