package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// snapshotOf builds a small induced stream with bootstrap replicates, so
// the comparator sees sizes, weights, within-densities and intervals.
func snapshotOf(t *testing.T) *stream.Snapshot {
	t.Helper()
	g, err := paperGraph(7)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := walkRecords(g, 8, 3000, false)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := stream.NewAccumulator(stream.Config{K: g.NumCategories(), N: float64(g.NumNodes()),
		Size: core.SizeMethodAuto, Replicates: uncert.Config{B: 20, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// roundTrip sends a document through JSON, as the daemon's reply travels.
func roundTrip(t *testing.T, d *estimateDoc) *estimateDoc {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	out := &estimateDoc{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareEstimatesAgree(t *testing.T) {
	want := referenceDoc(snapshotOf(t), ciLevel)
	if len(want.Sizes) == 0 || len(want.Weights) == 0 || want.Sizes[0].CI == nil {
		t.Fatal("reference document lacks sizes, weights or intervals")
	}
	mism, maxRel := compareEstimates(roundTrip(t, want), want)
	if len(mism) != 0 || maxRel != 0 {
		t.Fatalf("identical estimates differ: %v (max rel %g)", mism, maxRel)
	}
}

func TestCompareEstimatesTolerance(t *testing.T) {
	want := referenceDoc(snapshotOf(t), ciLevel)

	within := roundTrip(t, want)
	within.Sizes[2].Size *= 1 + 1e-11
	if mism, _ := compareEstimates(within, want); len(mism) != 0 {
		t.Errorf("a 1e-11 relative difference should pass, got %v", mism)
	}

	beyond := roundTrip(t, want)
	beyond.Weights[0].W *= 1 + 1e-7
	mism, maxRel := compareEstimates(beyond, want)
	if len(mism) != 1 || !strings.HasPrefix(mism[0], "w[") || maxRel < 1e-8 {
		t.Errorf("a 1e-7 relative weight difference should fail once, got %v (max rel %g)", mism, maxRel)
	}

	ci := roundTrip(t, want)
	ci.Sizes[1].CI[1] *= 1 + 1e-6
	if mism, _ := compareEstimates(ci, want); len(mism) != 1 || !strings.HasPrefix(mism[0], "size_ci[1].hi") {
		t.Errorf("an interval endpoint difference should fail, got %v", mism)
	}
}

func TestCompareEstimatesMissingScalars(t *testing.T) {
	want := referenceDoc(snapshotOf(t), ciLevel)

	noCI := roundTrip(t, want)
	noCI.Sizes[0].CI = nil
	if mism, _ := compareEstimates(noCI, want); len(mism) != 2 {
		t.Errorf("a missing interval should fail on both endpoints, got %v", mism)
	}

	extra := roundTrip(t, want)
	extra.Weights = append(extra.Weights, weightDoc{A: 98, B: 99, W: 1})
	if mism, _ := compareEstimates(extra, want); len(mism) != 1 || !strings.Contains(mism[0], "missing from the reference") {
		t.Errorf("an extra weight should fail, got %v", mism)
	}

	draws := roundTrip(t, want)
	draws.Draws++
	if mism, _ := compareEstimates(draws, want); len(mism) != 1 || !strings.HasPrefix(mism[0], "draws") {
		t.Errorf("a draw count off by one should fail, got %v", mism)
	}
}

func TestParseProm(t *testing.T) {
	before := parseProm([]byte(`# HELP x y
http_request_seconds_sum{endpoint="/jobs/{job}/ingest"} 1.5
http_request_seconds_count{endpoint="/jobs/{job}/ingest"} 10
http_request_seconds_sum{endpoint="/healthz"} 0.5
topoestd_job_ingest_records_total{job="bench"} 100
topoestd_job_ingest_records_total{job="default"} 7
stream_epoch_flushes_total 2
stream_ingest_records_total 100
`))
	after := parseProm([]byte(`http_request_seconds_sum{endpoint="/jobs/{job}/ingest"} 3.5
http_request_seconds_count{endpoint="/jobs/{job}/ingest"} 30
http_request_seconds_sum{endpoint="/healthz"} 0.5
topoestd_job_ingest_records_total{job="bench"} 1100
topoestd_job_ingest_records_total{job="default"} 9
stream_epoch_flushes_total 6
stream_ingest_records_total 1100
`))
	ms := daemonLayers(after.minus(before))
	for name, want := range map[string]float64{
		"topoestd.ingest.busy_s":   2,
		"topoestd.ingest.requests": 20,
		"topoestd.http.busy_s":     2,
		"job.ingest.records":       1000, // the default job is not a benchmark job
		"stream.flushes":           4,
		"stream.records_per_flush": 250,
		"job.checkpoint.frames":    0,
	} {
		if got := layerValue(ms, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "c", Start: 50, End: 70, Parent: 2},
	}
	self, count := selfTimes(spans)
	for name, want := range map[string]float64{"root": 20e-9, "a": 30e-9, "b": 30e-9, "c": 20e-9} {
		if d := self[name] - want; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], want)
		}
	}
	if count["a"] != 1 {
		t.Errorf("count[a] = %d", count["a"])
	}
}

func TestWalkRecordsDeterministic(t *testing.T) {
	g, err := paperGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := walkRecords(g, 5, 500, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := walkRecords(g, 5, 500, true)
	c, _ := walkRecords(g, 6, 500, true)
	same := func(x, y []sample.NodeObservation) bool {
		for i := range x {
			if x[i].Node != y[i].Node {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different records")
	}
	if same(a, c) {
		t.Error("different seeds gave the same records")
	}
}
