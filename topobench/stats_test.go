package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median would have 9.5 samples above it
		{20, 0.50, true},
		{99, 0.50, true},
		{100, 0.90, true},
		{999, 0.90, true},
		{1000, 0.99, true},
		{1_000_000, 0.99, true}, // capped at p99
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummaryStatesPercentileAndCount(t *testing.T) {
	var l latencies
	for i := 1; i <= 150; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.summarize()
	if s.n != 150 || s.tailP != 0.90 || s.tail != 135 || s.p50 != 75 {
		t.Fatalf("summary = %+v, want n=150 p50=75 p90=135", s)
	}
	if str := s.String(); !strings.Contains(str, "p90") || !strings.Contains(str, "n=150") {
		t.Errorf("summary string %q does not state the percentile and the sample count", str)
	}
	var few latencies
	few.add(time.Millisecond)
	if str := few.summarize().String(); !strings.Contains(str, "no tail") {
		t.Errorf("a single sample should report no tail, got %q", str)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{"setup_s", "records_per_s", "stream.flush.ns_per_record", "job.ingest.busy_s", "0x", "a-b",
		strings.Repeat("a", 64)}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/name", "unit%", "ünïcode", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validMetricName(n) {
			t.Errorf("validMetricName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validMetricName(n) {
			t.Errorf("validMetricName(%q) = true, want false", n)
		}
	}
}

// Every metric the benchmark can emit must pass the naming rule.
func TestEmittedMetricNamesValid(t *testing.T) {
	o := &options{out: &strings.Builder{}}
	ms := e2eMetrics(o, 1, 1, summary{}, summary{}, summary{}, 1)
	ms = append(ms, daemonLayers(promSample{})...)
	r := &replay{}
	r.tracedMetrics(1, nil)
	ms = append(ms, ledger(&strings.Builder{}, nil, r, 1, 1)...)
	seen := map[string]bool{}
	for _, m := range ms {
		if !validMetricName(m.name) {
			t.Errorf("emitted metric name %q is invalid", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q emitted twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestChunkRate(t *testing.T) {
	w := &writeResult{records: 100, wall: 10 * time.Second}
	// Ten acks of 10 records, one per second, except a 3-second stall
	// before the sixth: the median chunk rate ignores the stall.
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += time.Second
		if i == 5 {
			at += 3 * time.Second
		}
		w.acks = append(w.acks, ack{at: at, records: 10})
	}
	if got := w.rate(); got != 10 {
		t.Errorf("rate = %v, want the median chunk rate 10", got)
	}
	if avg := float64(w.records) / at.Seconds(); avg >= 10 {
		t.Fatalf("test setup: average %v should be below the median", avg)
	}
	few := &writeResult{records: 50, wall: 500 * time.Millisecond, acks: []ack{{at: time.Second, records: 50}}}
	if got := few.rate(); got != 100 {
		t.Errorf("rate with fewer acks than chunks = %v, want the average 100", got)
	}
}

func TestSentTimes(t *testing.T) {
	total := 0
	for j := 0; j < 7; j++ {
		total += sentTimes(j, 23, 7)
	}
	if total != 23 || sentTimes(0, 23, 7) != 4 || sentTimes(6, 23, 7) != 3 {
		t.Errorf("sentTimes splits 23 sends over 7 bodies wrongly (total %d)", total)
	}
}
