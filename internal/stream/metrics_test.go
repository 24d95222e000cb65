package stream

import (
	"testing"

	"repro/internal/sample"
	"repro/internal/uncert"
)

// TestIngestCountersMove checks the process-wide ingest counters: applied
// records advance IngestedTotal (once per record, batches included) and
// validation failures advance RejectedTotal. Totals are asserted as deltas —
// the counters are shared with every other test in the process.
func TestIngestCountersMove(t *testing.T) {
	a, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	ingBefore, rejBefore := IngestedTotal(), RejectedTotal()
	if err := a.Ingest(sample.NodeObservation{Node: 1, Cat: 0}); err != nil {
		t.Fatal(err)
	}
	if n, err := a.IngestBatch([]sample.NodeObservation{{Node: 2, Cat: 1}, {Node: 3, Cat: 0}}); err != nil || n != 2 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if got := IngestedTotal() - ingBefore; got != 3 {
		t.Errorf("IngestedTotal advanced by %d, want 3", got)
	}
	if got := RejectedTotal() - rejBefore; got != 0 {
		t.Errorf("RejectedTotal advanced by %d on valid records, want 0", got)
	}
	if err := a.Ingest(sample.NodeObservation{Node: 9, Cat: 7}); err == nil {
		t.Fatal("out-of-range category was accepted")
	}
	if err := a.Ingest(sample.NodeObservation{Node: 9, Cat: 0, Weight: -1}); err == nil {
		t.Fatal("negative weight was accepted")
	}
	if got := RejectedTotal() - rejBefore; got != 2 {
		t.Errorf("RejectedTotal advanced by %d after 2 rejections, want 2", got)
	}
	if got := IngestedTotal() - ingBefore; got != 3 {
		t.Errorf("IngestedTotal advanced by %d, rejected records must not count", got)
	}
	// A failing batch still counts its applied prefix.
	if n, _ := a.IngestBatch([]sample.NodeObservation{{Node: 4, Cat: 1}, {Node: 5, Cat: 9}}); n != 1 {
		t.Fatalf("batch prefix: n=%d, want 1", n)
	}
	if got := IngestedTotal() - ingBefore; got != 4 {
		t.Errorf("IngestedTotal advanced by %d after partial batch, want 4", got)
	}
}

// TestBootstrapIngestBatchObserved checks that a bootstrap-enabled batch
// ingest observes the per-record bootstrap latency histogram once per
// applied record, like Ingest does.
func TestBootstrapIngestBatchObserved(t *testing.T) {
	a, err := NewAccumulator(Config{K: 2, Replicates: uncert.Config{B: 8, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	before := mBootIngestSec.Count()
	recs := []sample.NodeObservation{{Node: 1, Cat: 0}, {Node: 2, Cat: 1, Peers: []int32{1}}, {Node: 1, Cat: 0}}
	if n, err := a.IngestBatch(recs); err != nil || n != 3 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if got := mBootIngestSec.Count() - before; got != 3 {
		t.Errorf("stream_bootstrap_ingest_seconds count advanced by %d, want 3", got)
	}
	// An invalid record stops the batch; only the applied prefix is observed.
	before = mBootIngestSec.Count()
	if n, _ := a.IngestBatch([]sample.NodeObservation{{Node: 3, Cat: 1}, {Node: 4, Cat: 5}}); n != 1 {
		t.Fatalf("batch prefix: n=%d, want 1", n)
	}
	if got := mBootIngestSec.Count() - before; got != 1 {
		t.Errorf("count advanced by %d after a 1-record prefix, want 1", got)
	}
}

// BenchmarkIngestInstrumentationOverhead prices exactly what instrumentation
// added to one applied record on the non-bootstrap hot path: the
// replicates-enabled branch check plus one striped counter add. Compare
// against BenchmarkStreamIngest (repo root) to put it in context — the full
// ingest is an order of magnitude more per record, so the overhead sits far
// under the 5% bench-gate target.
func BenchmarkIngestInstrumentationOverhead(b *testing.B) {
	a, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a.reps != nil {
			b.Fatal("bootstrap off in this benchmark")
		}
		mIngested.Inc()
	}
}
