package stream

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// TestEpochRequiresStar checks the constructor guards.
func TestEpochRequiresStar(t *testing.T) {
	if _, err := NewEpochAccumulator(Config{K: 3, Star: false}, 0); err == nil {
		t.Fatal("expected error for induced epoch accumulator")
	}
	if _, err := NewEpochAccumulator(Config{K: 3, Star: true}, -1); err == nil {
		t.Fatal("expected error for negative flushEvery")
	}
	if _, err := NewEpochAccumulator(Config{K: 0, Star: true}, 0); err == nil {
		t.Fatal("expected error for K = 0")
	}
	ea, err := NewEpochAccumulator(Config{K: 3, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Snapshot(); err == nil {
		t.Fatal("expected error snapshotting an empty epoch accumulator")
	}
}

// TestEpochBatchPrefixSemantics checks that the epoch IngestBatch keeps the
// single-lock accumulator's retry contract: on error, exactly the leading
// records before the offender are applied (one epoch, flushed on exit).
func TestEpochBatchPrefixSemantics(t *testing.T) {
	ea, err := NewEpochAccumulator(Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []sample.NodeObservation{
		{Node: 10, Cat: 0, Deg: 1, NbrCat: []int32{1}, NbrCnt: []float64{1}},
		{Node: 11, Cat: 1, Deg: 1, NbrCat: []int32{0}, NbrCnt: []float64{1}},
		{Node: 12, Cat: 9}, // invalid category
		{Node: 13, Cat: 0},
	}
	n, err := ea.IngestBatch(recs)
	if err == nil {
		t.Fatal("expected error on invalid record")
	}
	if n != 2 {
		t.Fatalf("applied %d records, want the 2-record prefix", n)
	}
	if ea.Draws() != 2 {
		t.Fatalf("draws = %d after failed batch, want 2", ea.Draws())
	}
	// The documented retry: resend only the remainder with the offender
	// fixed.
	recs[2].Cat = 1
	if _, err := ea.IngestBatch(recs[2:]); err != nil {
		t.Fatal(err)
	}
	if ea.Draws() != 4 {
		t.Fatalf("draws = %d after retry, want 4", ea.Draws())
	}
}

// TestEpochConvergenceAndSeq checks that epoch snapshots number from 1,
// start at +Inf deltas, and then report finite movement.
func TestEpochConvergenceAndSeq(t *testing.T) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(5), g, 4000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := NewEpochAccumulator(Config{K: g.NumCategories(), Star: true, N: float64(g.N())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Nodes[:2000] {
		if err := ingestOne(ea, so.Observe(v, s.Weight(i))); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ea.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || !math.IsInf(first.Converge.SizeDelta, 1) || first.Converge.DrawsSince != 2000 {
		t.Fatalf("first epoch snapshot: %+v", first.Converge)
	}
	for i, v := range s.Nodes[2000:] {
		if err := ingestOne(ea, so.Observe(v, s.Weight(2000+i))); err != nil {
			t.Fatal(err)
		}
	}
	second, err := ea.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq != 2 || second.Converge.DrawsSince != 2000 {
		t.Fatalf("second epoch snapshot: seq=%d %+v", second.Seq, second.Converge)
	}
	if math.IsInf(second.Converge.SizeDelta, 1) || second.Converge.SizeDelta < 0 {
		t.Fatalf("second snapshot delta not finite: %+v", second.Converge)
	}
}

// TestEpochBatchCountExactUnderConcurrency pins the documented concurrent
// IngestBatch guarantee for locally detectable conflicts: every conflicting
// batch carries its offending re-delivery AFTER a consistent record of the
// same node in the same batch, so the conflict is caught at ingest (against
// the epoch's own state), each caller gets an exact prefix count, and the
// total draw count equals the sum of the returned counts. Run under -race.
func TestEpochBatchCountExactUnderConcurrency(t *testing.T) {
	ea, err := NewEpochAccumulator(Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every batch re-draws a shared node set, and half the batches carry a
	// conflicting re-delivery of node 7: the weight-1 record of node 7
	// precedes any weight-3 record in batch order, so each conflicting
	// batch deterministically stops at its conflicting index.
	const callers = 8
	batches := make([][]sample.NodeObservation, callers)
	for c := range batches {
		w := 1.0
		for v := int32(0); v < 40; v++ {
			rec := sample.NodeObservation{
				Node: v, Weight: w, Cat: v % 2,
				Deg: 2, NbrCat: []int32{(v + 1) % 2}, NbrCnt: []float64{2},
			}
			batches[c] = append(batches[c], rec)
		}
		if c%2 == 1 {
			batches[c][20] = sample.NodeObservation{
				Node: 7, Weight: 3, Cat: 1,
				Deg: 2, NbrCat: []int32{0}, NbrCnt: []float64{2},
			}
		}
	}
	counts := make([]int, callers)
	var wg sync.WaitGroup
	for c := range batches {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n, _ := ea.IngestBatch(batches[c])
			counts[c] = n
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	if ea.Draws() != total {
		t.Fatalf("Draws() = %d, want the sum of returned batch counts %d", ea.Draws(), total)
	}
	if uint64(total) != ea.Gen() {
		t.Fatalf("Gen() = %d, want %d", ea.Gen(), total)
	}
	// Every conflicting batch must have stopped at its offender.
	if total == callers*40 {
		t.Fatal("no batch reported a conflict; the test graph is miswired")
	}
	// The accumulator still snapshots cleanly from the applied records.
	if _, err := ea.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestGenMonotoneNonTorn checks the Gen/Draws contract on both
// accumulators: the generation advances once per applied record (per
// applied epoch record, for the epoch accumulator's auto-flushing Ingest),
// rejected records leave it unchanged, and concurrent readers only ever
// observe non-decreasing values. Run under -race.
func TestGenMonotoneNonTorn(t *testing.T) {
	single, err := NewAccumulator(Config{K: 2, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := NewEpochAccumulator(Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, acc := range map[string]Ingester{"single": single, "epoch": epoch} {
		if acc.Gen() != 0 {
			t.Fatalf("%s: fresh Gen() = %d", name, acc.Gen())
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					g := acc.Gen()
					if g < last {
						t.Errorf("%s: Gen went backwards: %d after %d", name, g, last)
						return
					}
					last = g
				}
			}()
		}
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for v := int32(w * 100); v < int32(w*100+50); v++ {
					rec := sample.NodeObservation{Node: v, Cat: v % 2, Deg: 1, NbrCat: []int32{0}, NbrCnt: []float64{1}}
					if err := ingestOne(acc, rec); err != nil {
						t.Errorf("%s: ingest: %v", name, err)
						return
					}
				}
			}(w)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		if acc.Gen() != 200 || acc.Draws() != 200 {
			t.Fatalf("%s: Gen=%d Draws=%d, want 200 each", name, acc.Gen(), acc.Draws())
		}
		// A rejected record must not advance the generation.
		if err := ingestOne(acc, sample.NodeObservation{Node: 1, Cat: 9}); err == nil {
			t.Fatalf("%s: invalid record accepted", name)
		}
		if acc.Gen() != 200 {
			t.Fatalf("%s: rejected record advanced Gen to %d", name, acc.Gen())
		}
	}
}

// TestEpochFlushZeroPending checks the flush-boundary edge cases around
// empty epochs: flushing a fresh Local and double-flushing are cheap no-ops
// that do not advance Gen.
func TestEpochFlushZeroPending(t *testing.T) {
	ea, err := NewEpochAccumulator(Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := ea.NewLocal()
	if a, d := l.Flush(); a != 0 || d != 0 {
		t.Fatalf("empty flush applied/dropped = %d/%d", a, d)
	}
	if ea.Gen() != 0 {
		t.Fatalf("empty flush advanced Gen to %d", ea.Gen())
	}
	rec := sample.NodeObservation{Node: 1, Cat: 0, Deg: 1, NbrCat: []int32{1}, NbrCnt: []float64{1}}
	if err := l.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", l.Pending())
	}
	if a, d := l.Flush(); a != 1 || d != 0 {
		t.Fatalf("flush applied/dropped = %d/%d, want 1/0", a, d)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending() = %d after flush, want 0", l.Pending())
	}
	// Double flush: nothing left.
	if a, d := l.Flush(); a != 0 || d != 0 {
		t.Fatalf("second flush applied/dropped = %d/%d", a, d)
	}
	if ea.Gen() != 1 || ea.Draws() != 1 {
		t.Fatalf("Gen/Draws = %d/%d, want 1/1", ea.Gen(), ea.Draws())
	}
}

// TestEpochLateStarAcrossLocals checks star reconciliation across epoch
// boundaries and writers: draws of a node flushed WITHOUT star data are
// backfilled when another local later flushes the node's star record, a
// degree upgrade retrofits already-published draws, and star-less draws
// flushed AFTER the directory learned the star data are credited with it.
// Each variant must match the node-table oracle and a single-lock
// accumulator fed the same records, without replicates and with B = 9.
func TestEpochLateStarAcrossLocals(t *testing.T) {
	bare := sample.NodeObservation{Node: 5, Cat: 0}
	starred := sample.NodeObservation{Node: 5, Cat: 0, Deg: 3,
		NbrCat: []int32{0, 1}, NbrCnt: []float64{1, 2}}
	other := sample.NodeObservation{Node: 9, Cat: 1, Deg: 2,
		NbrCat: []int32{0}, NbrCnt: []float64{2}}
	cases := map[string][]sample.NodeObservation{
		// Late-star backfill: two bare draws publish first, the starred
		// re-draw arrives from another local.
		"backfill": {bare, bare, starred, other},
		// Credit from the directory: the starred draw publishes first, a
		// later local's bare draws inherit the star data.
		"credit": {starred, bare, bare, other},
		// Sandwich: bare, starred, bare across three epochs.
		"sandwich": {bare, starred, bare, other},
	}
	for _, B := range []int{0, 9} {
		for name, recs := range cases {
			name := fmt.Sprintf("%s B=%d", name, B)
			cfg := Config{K: 2, Star: true, N: 100, Replicates: uncert.Config{B: B, Seed: 4}}
			single, err := NewAccumulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ea, err := NewEpochAccumulator(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := single.Ingest(rec); err != nil {
					t.Fatalf("%s: single ingest: %v", name, err)
				}
				// A fresh Local per record: every draw crosses an epoch
				// boundary, maximizing directory reconciliation.
				l := ea.NewLocal()
				if err := l.Ingest(rec); err != nil {
					t.Fatalf("%s: local ingest: %v", name, err)
				}
				if _, dropped := l.Flush(); dropped > 0 {
					t.Fatalf("%s: flush dropped %d records", name, dropped)
				}
			}
			want, err := single.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ea.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > 1e-12 {
				t.Fatalf("%s: size mismatch %g", name, d)
			}
			if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > 1e-12 {
				t.Fatalf("%s: weight mismatch %g", name, d)
			}
			if d := maxRelDiff(got.Within, want.Within); d > 1e-12 {
				t.Fatalf("%s: within mismatch %g", name, d)
			}
			compareBoot(t, name, got.Boot, want.Boot, 1e-12)
			checkOracle(t, name+" epoch", ea, 1e-12)
			checkOracle(t, name+" single-lock", single, 1e-12)
		}
	}
}

// TestEpochSnapshotDuringMerge races snapshots against concurrent flushes
// of overlapping node sets and checks every observed snapshot is coherent:
// draw counts are monotone in snapshot sequence, never exceed the stream,
// and the linear estimates (sizes, within-densities) are always finite.
// Run under -race.
func TestEpochSnapshotDuringMerge(t *testing.T) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(13), g, 6000)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		so, err := sample.NewStreamObserver(g, true)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = so.Observe(v, s.Weight(i))
	}
	ea, err := NewEpochAccumulator(Config{K: g.NumCategories(), Star: true, N: float64(g.N())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := ea.NewLocal()
			defer l.Flush()
			for i := w; i < len(recs); i += workers {
				if err := l.Ingest(recs[i]); err != nil {
					t.Error(err)
					return
				}
				// Tiny epochs: merges happen constantly under the poller.
				if l.Pending() >= 16 {
					l.Flush()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		lastDraws := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := ea.Snapshot()
			if err != nil {
				continue
			}
			if snap.Draws < lastDraws || snap.Draws > len(recs) {
				t.Errorf("snapshot draws %d not in [%d, %d]", snap.Draws, lastDraws, len(recs))
				return
			}
			lastDraws = snap.Draws
			for c, sz := range snap.Result.Sizes {
				if math.IsNaN(sz) || math.IsInf(sz, 0) || sz < 0 {
					t.Errorf("snapshot size[%d] = %g at %d draws", c, sz, snap.Draws)
					return
				}
			}
			for c, w := range snap.Within {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Errorf("snapshot within[%d] = %g at %d draws", c, w, snap.Draws)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if t.Failed() {
		return
	}
	if ea.Draws() != len(recs) {
		t.Fatalf("Draws() = %d, want %d", ea.Draws(), len(recs))
	}
}

// pendingGauge reads stream_local_pending_records off the default registry's
// Prometheus exposition.
func pendingGauge(t *testing.T) float64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "stream_local_pending_records "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatal("stream_local_pending_records is not exposed")
	return 0
}

// TestLocalPendingGauge checks the value of stream_local_pending_records: a
// Local publishes its unflushed records every 64th record, and a flush —
// its own, or the one closing ea.IngestBatch's borrowed Local — takes them
// back out. Values are deltas against a baseline: the gauge is process-wide.
func TestLocalPendingGauge(t *testing.T) {
	ea, err := NewEpochAccumulator(Config{K: 2, Star: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) sample.NodeObservation {
		return sample.NodeObservation{Node: int32(i % 50), Cat: int32(i % 2)}
	}
	base := pendingGauge(t)
	l := ea.NewLocal()
	for i := 0; i < 130; i++ {
		if err := l.Ingest(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pendingGauge(t) - base; got != 128 {
		t.Fatalf("gauge rose by %g after 130 records, want 128", got)
	}
	l.Flush()
	if got := pendingGauge(t) - base; got != 0 {
		t.Fatalf("gauge is %g off its baseline after Flush", got)
	}
	recs := make([]sample.NodeObservation, 200)
	for i := range recs {
		recs[i] = rec(i)
	}
	if n, err := ea.IngestBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if got := pendingGauge(t) - base; got != 0 {
		t.Fatalf("gauge is %g off its baseline after IngestBatch", got)
	}
}

// TestFlushedLocalsAreCollectable checks that a Local pins nothing once its
// owner drops it: Locals that were flushed but never handed back anywhere
// do not keep their accumulator alive.
func TestFlushedLocalsAreCollectable(t *testing.T) {
	wp := func() weak.Pointer[EpochAccumulator] {
		ea, err := NewEpochAccumulator(Config{K: 3, Star: true, Replicates: uncert.Config{B: 4, Seed: 1}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			l := ea.NewLocal()
			if err := l.Ingest(sample.NodeObservation{Node: int32(i), Cat: int32(i % 3)}); err != nil {
				t.Fatal(err)
			}
			l.Flush()
		}
		return weak.Make(ea)
	}()
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an accumulator whose flushed Locals were dropped is still live")
	}
}
