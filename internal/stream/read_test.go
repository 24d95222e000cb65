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
// bootstrap replicates. Batches publish in chunks, so a read may see part
// of a batch in flight, but never less than what was acknowledged before
// the read began nor more than what had been sent when it ended. Exports
// are consistent cuts (one draw per record, so the sums' draws equal the
// generation); snapshots are numbered in the order their cuts were taken,
// so Seq rises with Draws and no convergence delta is negative.
func TestReadsBesideBatchWriter(t *testing.T) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(31), g, 2000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]sample.NodeObservation, s.Len())
	for i, v := range s.Nodes {
		batch[i] = so.Observe(v, s.Weight(i))
	}
	acc, err := NewAccumulator(Config{
		K: g.NumCategories(), Star: true, N: float64(g.N()),
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
	type seen struct {
		seq   int64
		draws int
	}
	var mu sync.Mutex
	var snaps []seen
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
				snaps = append(snaps, seen{snap.Seq, snap.Draws})
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
	slices.SortFunc(snaps, func(a, b seen) int { return int(a.seq - b.seq) })
	for i := 1; i < len(snaps); i++ {
		if snaps[i].seq == snaps[i-1].seq || snaps[i].draws < snaps[i-1].draws {
			t.Fatalf("snapshot seq %d saw %d draws after seq %d saw %d", snaps[i].seq, snaps[i].draws, snaps[i-1].seq, snaps[i-1].draws)
		}
	}
	final, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + batches*len(batch); final.Draws != want || acc.Gen() != uint64(want) {
		t.Fatalf("final draws %d, gen %d, want %d", final.Draws, acc.Gen(), want)
	}
	t.Logf("%d snapshots beside %d batches", len(snaps), batches)
}
