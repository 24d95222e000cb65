package stream

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/uncert"
)

// TestReadsBesideBatchWriter runs one writer sending 2,000-record batches
// against concurrent Snapshot and Export readers on an accumulator with
// bootstrap replicates, for star and induced streams. Batches publish in
// chunks (one record per hold in the induced stream), so a read may see part
// of a batch in flight, but never less than what was acknowledged before
// the read began nor more than what had been sent when it ended. Exports
// are consistent cuts (one draw per record, so the sums' draws equal the
// generation). Snapshots are published once per generation: readers at one
// generation share one *Snapshot, so equal Seq means the same snapshot with
// equal draws, a new Seq comes with more draws and a later generation, and
// no convergence delta is negative.
func TestReadsBesideBatchWriter(t *testing.T) {
	for _, sc := range []struct {
		name string
		star bool
	}{{"star", true}, {"induced", false}} {
		t.Run(sc.name, func(t *testing.T) { readsBesideBatchWriter(t, sc.star) })
	}
}

func readsBesideBatchWriter(t *testing.T, star bool) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(31), g, 2000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, star)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		batch[i] = so.Observe(v, s.Weight(i))
	}
	acc, err := NewAccumulator(Config{
		K: g.NumCategories(), Star: star, N: float64(g.N()),
		Replicates: uncert.Config{B: 16, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// sent counts records handed to IngestBatch, acked those it returned.
	var sent, acked atomic.Int64
	if err := acc.Ingest(batch[0]); err != nil {
		t.Fatal(err)
	}
	sent.Store(1)
	acked.Store(1)

	const batches = 6
	stop := make(chan struct{})
	var mu sync.Mutex
	var snaps []*Snapshot
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := acked.Load()
				if r == 2 {
					st, err := acc.Export()
					if err != nil {
						t.Error(err)
						return
					}
					if hi := sent.Load(); int64(st.Gen) < lo || int64(st.Gen) > hi {
						t.Errorf("export gen %d outside [%d, %d]", st.Gen, lo, hi)
					}
					if st.Sums.Draws != float64(st.Gen) {
						t.Errorf("export cut: %g draws at gen %d", st.Sums.Draws, st.Gen)
					}
					continue
				}
				snap, err := acc.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if hi := sent.Load(); int64(snap.Draws) < lo || int64(snap.Draws) > hi {
					t.Errorf("snapshot draws %d outside [%d, %d]", snap.Draws, lo, hi)
				}
				if snap.Converge.DrawsSince < 0 {
					t.Errorf("snapshot %d: draws_since %d", snap.Seq, snap.Converge.DrawsSince)
				}
				if snap.Boot == nil {
					t.Errorf("snapshot %d lost its bootstrap", snap.Seq)
				}
				mu.Lock()
				snaps = append(snaps, snap)
				mu.Unlock()
			}
		}(r)
	}
	for i := 0; i < batches; i++ {
		sent.Add(int64(len(batch)))
		n, err := acc.IngestBatch(batch)
		if err != nil || n != len(batch) {
			t.Fatalf("batch %d: applied %d of %d: %v", i, n, len(batch), err)
		}
		acked.Add(int64(n))
	}
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	slices.SortStableFunc(snaps, func(a, b *Snapshot) int { return int(a.Seq - b.Seq) })
	distinct := 1
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if a.Seq == b.Seq {
			if a != b {
				t.Fatalf("two snapshots share seq %d (%d and %d draws)", a.Seq, a.Draws, b.Draws)
			}
			continue
		}
		distinct++
		if b.Draws <= a.Draws || b.Gen <= a.Gen {
			t.Fatalf("snapshot seq %d saw %d draws at gen %d after seq %d saw %d at gen %d", b.Seq, b.Draws, b.Gen, a.Seq, a.Draws, a.Gen)
		}
	}
	// In the induced stream the writer releases the lock after every
	// record, so reads land inside what would have been a batchChunk-record
	// chunk.
	inside := 0
	for _, snap := range snaps {
		if snap.Gen != uint64(snap.Draws) {
			t.Fatalf("snapshot seq %d: gen %d for %d draws", snap.Seq, snap.Gen, snap.Draws)
		}
		if (snap.Gen-1)%uint64(len(batch))%batchChunk != 0 {
			inside++
		}
	}
	if !star && distinct >= 100 && inside == 0 {
		t.Fatalf("none of %d snapshots fell inside a %d-record chunk: the writer holds the lock per chunk", distinct, batchChunk)
	}
	final, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + batches*len(batch); final.Draws != want || acc.Gen() != uint64(want) {
		t.Fatalf("final draws %d, gen %d, want %d", final.Draws, acc.Gen(), want)
	}
	t.Logf("%d reads of %d snapshots beside %d batches", len(snaps), distinct, batches)
}

// observeRecords draws n uniform records of the test graph for scenario
// star (induced records carry their peers).
func observeRecords(t *testing.T, n int, star bool) []sample.NodeObservation {
	t.Helper()
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(7), g, n)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, star)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		recs[i] = so.Observe(v, s.Weight(i))
	}
	return recs
}

// TestEveryPublishAdvancesGen audits the publish paths of all three
// Ingesters: snapshots are published once per generation, so a write that
// changed the view without advancing Gen would be served stale. Each path
// must advance Gen and yield a new snapshot with the new draws, while a
// rejected record and repeated reads leave the published snapshot as is.
func TestEveryPublishAdvancesGen(t *testing.T) {
	k := testGraph(t).NumCategories()
	boot := uncert.Config{B: 8, Seed: 5}
	starRecs := observeRecords(t, 40, true)
	inducedRecs := observeRecords(t, 40, false)
	bad := sample.NodeObservation{Node: 1 << 30, Weight: 1, Cat: int32(k)}

	type path struct {
		name    string
		acc     Ingester
		publish func(t *testing.T) // applies one more draw (the pool: one rebuild)
		draws   int                // draws the publish adds
	}
	newAcc := func(star bool) *Accumulator {
		a, err := NewAccumulator(Config{K: k, Star: star, Replicates: boot})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	newEpoch := func() *EpochAccumulator {
		ea, err := NewEpochAccumulator(Config{K: k, Star: true, Replicates: boot}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ea
	}
	// next hands out the records in order; the first one primes the stream.
	next := func(recs []sample.NodeObservation) func() sample.NodeObservation {
		i := 0
		return func() sample.NodeObservation { i++; return recs[i-1] }
	}
	var paths []path
	{
		a, rec := newAcc(true), next(starRecs)
		a.Ingest(rec())
		paths = append(paths,
			path{"single-lock/star/Ingest", a, func(t *testing.T) { must(t, a.Ingest(rec())) }, 1},
			path{"single-lock/star/IngestBatch", a, func(t *testing.T) { batch(t, a, rec(), rec()) }, 2})
	}
	{
		a, rec := newAcc(false), next(inducedRecs)
		a.Ingest(rec())
		paths = append(paths,
			path{"single-lock/induced/Ingest", a, func(t *testing.T) { must(t, a.Ingest(rec())) }, 1},
			path{"single-lock/induced/IngestBatch", a, func(t *testing.T) { batch(t, a, rec(), rec()) }, 2})
	}
	{
		ea, rec := newEpoch(), next(starRecs)
		must(t, ingestOne(ea, rec()))
		l := ea.NewLocal()
		t.Cleanup(func() { l.Flush() })
		paths = append(paths,
			path{"epoch/IngestBatch", ea, func(t *testing.T) { batch(t, ea, rec(), rec()) }, 2},
			path{"epoch/Local.Flush", ea, func(t *testing.T) {
				must(t, l.Ingest(rec()))
				if applied, dropped := l.Flush(); applied != 1 || dropped != 0 {
					t.Fatalf("flush applied %d, dropped %d", applied, dropped)
				}
			}, 1})
	}
	{
		// A pool's publish is a rebuild; each one merges a worker state
		// with one more draw than the last.
		p, err := NewPool(Config{K: k, Star: true})
		if err != nil {
			t.Fatal(err)
		}
		w, rec := newAcc(true), next(starRecs)
		rebuild := func(t *testing.T) {
			must(t, w.Ingest(rec()))
			st, err := w.Export()
			must(t, err)
			must(t, p.Rebuild([]*State{st}))
		}
		rebuild(t)
		paths = append(paths, path{"pool/Rebuild", p, rebuild, 1})
	}

	for _, pt := range paths {
		t.Run(pt.name, func(t *testing.T) {
			before, err := pt.acc.Snapshot()
			must(t, err)
			if again, err := pt.acc.Snapshot(); err != nil || again != before {
				t.Fatalf("a second read at gen %d computed a new snapshot (%v)", before.Gen, err)
			}
			if _, ok := pt.acc.(*Pool); !ok {
				if err := ingestOne(pt.acc, bad); err == nil {
					t.Fatal("out-of-range category accepted")
				}
				if again, _ := pt.acc.Snapshot(); again != before || pt.acc.Gen() != before.Gen {
					t.Fatal("a rejected record moved the published snapshot")
				}
			}
			pt.publish(t)
			gen := pt.acc.Gen()
			if gen <= before.Gen {
				t.Fatalf("publish left gen at %d (snapshot at %d)", gen, before.Gen)
			}
			after, err := pt.acc.Snapshot()
			must(t, err)
			if after == before || after.Seq != before.Seq+1 || after.Gen != gen {
				t.Fatalf("after publish: seq %d gen %d, want seq %d gen %d", after.Seq, after.Gen, before.Seq+1, gen)
			}
			if after.Draws != before.Draws+pt.draws || after.Converge.DrawsSince != pt.draws {
				t.Fatalf("after publish: %d draws (%d since), want %d (%d since)",
					after.Draws, after.Converge.DrawsSince, before.Draws+pt.draws, pt.draws)
			}
		})
	}
}

// TestConcurrentReadersShareOneSnapshot starts readers together at one
// generation: exactly one of them computes the snapshot, and every reader
// gets that one.
func TestConcurrentReadersShareOneSnapshot(t *testing.T) {
	recs := observeRecords(t, 200, true)
	k := testGraph(t).NumCategories()
	cfg := Config{K: k, Star: true, Replicates: uncert.Config{B: 16, Seed: 5}}
	a, err := NewAccumulator(cfg)
	must(t, err)
	ea, err := NewEpochAccumulator(cfg, 0)
	must(t, err)
	for _, acc := range []Ingester{a, ea} {
		batch(t, acc, recs...)
		const readers = 8
		got := make([]*Snapshot, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				snap, err := acc.Snapshot()
				if err != nil {
					t.Error(err)
				}
				got[r] = snap
			}(r)
		}
		close(start)
		wg.Wait()
		for _, snap := range got {
			if snap != got[0] || snap.Seq != 1 {
				t.Fatalf("%T: readers at one generation got seq %d and %d", acc, got[0].Seq, snap.Seq)
			}
		}
	}
}

// ingestOne hands acc a one-record batch: the per-record ack every engine
// serves.
func ingestOne(acc Ingester, rec sample.NodeObservation) error {
	_, err := acc.IngestBatch([]sample.NodeObservation{rec})
	return err
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// batch ingests recs as one batch and requires all of them applied.
func batch(t *testing.T, acc Ingester, recs ...sample.NodeObservation) {
	t.Helper()
	if n, err := acc.IngestBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("batch: applied %d of %d: %v", n, len(recs), err)
	}
}
