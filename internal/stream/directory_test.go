package stream

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sample"
	"repro/internal/uncert"
)

// dirObs is a consistent star record of node v: per-node constants and star
// data derived from v, with star data on two records in three.
func dirObs(v int32, i int) sample.NodeObservation {
	c := int32(uint32(v) % 5)
	rec := sample.NodeObservation{Node: v, Cat: c, Weight: 1 + float64(uint32(v)%7)/4}
	if i%3 != 0 {
		rec.Deg = float64(3 + uint32(v)%9)
		rec.NbrCat = []int32{(c + 1) % 5, (c + 3) % 5}
		rec.NbrCnt = []float64{2, 1}
	}
	return rec
}

// TestDirectoryConcurrentLocals races writers and readers over one epoch
// accumulator's directory: four Locals, each on its own goroutine, ingest
// overlapping id sets (so nodes absent at one Local's first touch get
// inserted by another's flush) with small epochs, while readers probe the
// directory, snapshot and export. The ~7,400 distinct nodes take the table
// from 16 slots through ten growths. At the end the accumulator must
// equal a single-lock reference fed the same records: distinct count,
// snapshot and the full resumable state.
func TestDirectoryConcurrentLocals(t *testing.T) {
	const writers, perWriter, span = 4, 6000, 3000
	cfg := Config{K: 5, Star: true, N: 1e5, Replicates: uncert.Config{B: 8, Seed: 3}}
	ea, err := NewEpochAccumulator(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Writer w draws from [w·span/2, w·span/2+span), overlapping each
	// neighbour by half, mapped over the whole int32 range by an odd
	// multiplier.
	streams := make([][]sample.NodeObservation, writers)
	for w := range streams {
		r := rand.New(rand.NewPCG(uint64(w), 7))
		for i := 0; i < perWriter; i++ {
			v := int32(uint32(w*span/2+r.IntN(span)) * 0x9e3779b1)
			streams[w] = append(streams[w], dirObs(v, i))
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := range streams {
		wg.Add(1)
		go func(recs []sample.NodeObservation) {
			defer wg.Done()
			l := ea.NewLocal()
			defer l.Flush()
			for _, rec := range recs {
				if err := l.Ingest(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(streams[w])
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := streams[i%writers][i%perWriter]
			if e, ok := ea.dir.lookup(rec.Node); ok && (e.cat != rec.Cat || e.weight != rec.Weight) {
				t.Errorf("node %d resolved to constants (%d, %g), want (%d, %g)", rec.Node, e.cat, e.weight, rec.Cat, rec.Weight)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ea.ExportFull(); err != nil {
				t.Error(err)
				return
			}
			_, _ = ea.Snapshot() // fails until the first flush lands
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	for _, recs := range streams {
		if _, err := ref.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ea.Distinct(), ref.Distinct(); got != want {
		t.Fatalf("distinct %d, reference %d", got, want)
	}
	if len(*ea.dir.table.Load()) < dirMinSlots<<3 {
		t.Fatalf("table has %d slots: fewer than three growths", len(*ea.dir.table.Load()))
	}
	got, err := ea.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Draws != want.Draws || got.Distinct != want.Distinct {
		t.Fatalf("snapshot draws/distinct %d/%d, reference %d/%d", got.Draws, got.Distinct, want.Draws, want.Distinct)
	}
	if d := maxRelDiff(got.Result.Sizes, want.Result.Sizes); d > 1e-9 {
		t.Fatalf("size mismatch %g", d)
	}
	if d := weightsMaxDiff(got.Result.Weights, want.Result.Weights); d > 1e-9 {
		t.Fatalf("weight mismatch %g", d)
	}
	gotFull, err := ea.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := ref.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	requireFullEqual(t, wantFull, gotFull, 1e-9)
}

// hostileIDs returns n distinct ids spread over the whole int32 range —
// negatives, math.MinInt32 and math.MaxInt32 included — in random order.
func hostileIDs(n int) []int32 {
	r := rand.New(rand.NewPCG(11, 13))
	seen := map[int32]bool{math.MinInt32: true, math.MaxInt32: true, -1: true, 0: true}
	ids := []int32{math.MinInt32, math.MaxInt32, -1, 0}
	for len(ids) < n {
		if v := int32(r.Uint32()); !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// dirBytesPerNode is the directory's documented bound on table bytes per
// node: at most 16/7 slots of 24 bytes.
const dirBytesPerNode = 55

// requireDirBounded checks the directory's documented memory bound: at most
// dirBytesPerNode table bytes per node, and per-node state for at most one
// chunk beyond the nodes.
func requireDirBounded[T any](t *testing.T, d *directory[T], n int) {
	t.Helper()
	if d.len() != n {
		t.Fatalf("directory holds %d nodes, want %d", d.len(), n)
	}
	table := len(*d.table.Load()) * int(unsafe.Sizeof(dirSlot{}))
	if table > dirBytesPerNode*n {
		t.Fatalf("table is %d bytes for %d nodes: over %d bytes per node", table, n, dirBytesPerNode)
	}
	if chunks := len(*d.chunks.Load()); chunks*dirChunk > n+dirChunk {
		t.Fatalf("%d state chunks of %d for %d nodes", chunks, dirChunk, n)
	}
}

// TestDirectoryHostileIDs ingests 200,000 distinct ids drawn from the whole
// int32 range into both engines: every node must land, each once, and the
// directory must stay within its per-node memory bound — no id layout
// makes it allocate by id range.
func TestDirectoryHostileIDs(t *testing.T) {
	ids := hostileIDs(200_000)
	cfg := Config{K: 5, Star: true}
	acc, err := NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := NewEpochAccumulator(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := ea.NewLocal()
	for i, v := range ids {
		rec := dirObs(v, i)
		if err := acc.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	requireDirBounded(t, acc.dir, len(ids))
	requireDirBounded(t, ea.dir, len(ids))
	for _, v := range ids[:1000] {
		if e, ok := ea.dir.lookup(v); !ok || ea.dir.at(e.idx).mult != 1 {
			t.Fatalf("node %d: present %v in the epoch directory, want once", v, ok)
		}
	}
}
