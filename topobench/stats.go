package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest first.
// The benchmark caps tails at p99: a percentile that moved between runs with
// the sample count would make run-to-run comparisons meaningless.
var tailLadder = []float64{0.99, 0.90, 0.50}

// tailPercentile picks the highest ladder percentile that has at least ten
// samples beyond it among n samples. ok is false when even the median has
// fewer than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencies collects request durations of one kind.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d.Nanoseconds())/1e6) }

// summary is the median and the rule-chosen tail of a latency set.
type summary struct {
	n      int
	p50    float64
	tailP  float64
	tail   float64
	tailOK bool
}

func (l *latencies) summarize() summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: percentile(s, 0.5)}
	out.tailP, out.tailOK = tailPercentile(len(s))
	if out.tailOK {
		out.tail = percentile(s, out.tailP)
	}
	return out
}

// String renders the summary with its sample count and the tail percentile
// it actually reports.
func (s summary) String() string {
	if !s.tailOK {
		return fmt.Sprintf("p50 %.4f ms, no tail (n=%d < 20)", s.p50, s.n)
	}
	return fmt.Sprintf("p50 %.4f ms, p%g %.4f ms (n=%d)", s.p50, s.tailP*100, s.tail, s.n)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var metricNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the result line's metric
// naming rule: a letter or digit first, then letters, digits, '_', '.' and
// '-', at most 64 characters.
func validMetricName(name string) bool { return metricNameRe.MatchString(name) }
