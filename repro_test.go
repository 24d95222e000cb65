package repro

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFacadeEndToEnd runs the doc-comment quick-start flow on a reduced
// paper graph and checks the estimate against ground truth.
func TestFacadeEndToEnd(t *testing.T) {
	// A small custom graph through the facade builder.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 0)
	b.AddEdge(0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetCategories([]int32{0, 0, 0, 1, 1, 1}, 2, []string{"L", "R"}); err != nil {
		t.Fatal(err)
	}
	// Census star observation recovers the exact category graph.
	nodes := make([]int32, g.N())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	o, err := ObserveStar(g, &Sample{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(o, Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := CategoryGraphFromEstimate(res, g.CategoryNames())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueCategoryGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg.Weight(0, 1)-truth.Weight(0, 1)) > 1e-9 {
		t.Fatalf("census weight %v != truth %v", cg.Weight(0, 1), truth.Weight(0, 1))
	}
	var buf bytes.Buffer
	if err := cg.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty TSV export")
	}
}

func TestFacadeSamplersConstructible(t *testing.T) {
	r := NewRand(5)
	g, err := GeneratePaperGraph(r, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 88850 {
		t.Fatalf("paper graph N = %d, want 88850", g.N())
	}
	samplers := []Sampler{NewUIS(), NewRW(10), NewMHRW(10)}
	if s, err := NewDegreeWIS(g); err != nil {
		t.Fatal(err)
	} else {
		samplers = append(samplers, s)
	}
	if s, err := NewSWRW(g, SWRWConfig{BurnIn: 10}); err != nil {
		t.Fatal(err)
	} else {
		samplers = append(samplers, s)
	}
	for _, smp := range samplers {
		s, err := smp.Sample(r, g, 200)
		if err != nil {
			t.Fatalf("%s: %v", smp.Name(), err)
		}
		if s.Len() != 200 {
			t.Fatalf("%s: %d draws", smp.Name(), s.Len())
		}
		oi, err := ObserveInduced(g, s)
		if err != nil {
			t.Fatal(err)
		}
		sizes := SizeInduced(oi, float64(g.N()))
		if len(sizes) != 10 {
			t.Fatalf("%s: %d sizes", smp.Name(), len(sizes))
		}
		os, err := ObserveStar(g, s)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := SizeStar(os, float64(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WeightsStar(os, ss); err != nil {
			t.Fatal(err)
		}
		if _, err := WeightsInduced(oi); err != nil {
			t.Fatal(err)
		}
	}
	// Population size from a thinned degree-WIS sample.
	wis, _ := NewDegreeWIS(g)
	s, err := wis.Sample(r, g, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if n := PopulationSize(s); math.IsInf(n, 0) || math.Abs(n-88850)/88850 > 0.5 {
		t.Fatalf("N̂ = %v implausible", n)
	}
	if NoCategory != -1 {
		t.Fatal("NoCategory sentinel changed")
	}
}

// TestFacadeStreaming runs the streaming workflow through the facade:
// crawl → observe incrementally → accumulate → snapshot, and checks the
// advertised batch/stream parity.
func TestFacadeStreaming(t *testing.T) {
	r := NewRand(47)
	g, err := GeneratePaperGraph(r, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRW(500).Sample(r, g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(StreamConfig{K: g.NumCategories(), Star: true, N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	so, err := NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamSample(acc, so, s); err != nil {
		t.Fatal(err)
	}
	snap, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Draws != s.Len() {
		t.Fatalf("snapshot draws = %d, want %d", snap.Draws, s.Len())
	}
	o, err := ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(o, Options{N: float64(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Sizes {
		if math.Abs(snap.Sizes()[c]-res.Sizes[c]) > 1e-9 {
			t.Fatalf("stream size[%d] = %g, batch %g", c, snap.Sizes()[c], res.Sizes[c])
		}
	}
	cg, err := CategoryGraphFromEstimate(snap.Result, g.CategoryNames())
	if err != nil {
		t.Fatal(err)
	}
	if cg.K() != g.NumCategories() {
		t.Fatalf("category graph has %d categories", cg.K())
	}
	// A draw outside the graph is an error naming it, not a panic, on the
	// facade's streaming entry points as on the batch ones.
	bad := &Sample{Nodes: []int32{0, int32(g.N())}}
	if err := StreamSample(acc, so, bad); err == nil || !strings.Contains(err.Error(), "draw 1 names node") {
		t.Fatalf("StreamSample on an out-of-range draw: %v", err)
	}
	if _, err := StreamWithCI(StreamConfig{K: g.NumCategories(), Star: true}, so, s, bad); err == nil {
		t.Fatal("StreamWithCI accepted an out-of-range draw")
	}
}

// TestFacadeMultiWalkPooling runs the paper's Table 2 workflow through the
// facade: several independent walks, pooled three ways — batch
// MergeObservations, streaming StreamWalks into a single-lock accumulator,
// and StreamWalks into a sharded accumulator — must all agree with
// estimating the concatenated sample directly.
func TestFacadeMultiWalkPooling(t *testing.T) {
	r := NewRand(53)
	g, err := GeneratePaperGraph(r, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	N := float64(g.N())
	walks, err := Walks(r, g, NewRW(300), 4, 800)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: estimate the concatenated sample in one batch.
	pooledSample := Merge(walks...)
	op, err := ObserveStar(g, pooledSample)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Estimate(op, Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	// Batch pooling: observe each walk independently, merge observations.
	obs := make([]*Observation, len(walks))
	for i, w := range walks {
		if obs[i], err = ObserveStar(g, w); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeObservations(obs...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Estimate(merged, Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming pooling, single-lock and epoch-merged.
	single, err := NewAccumulator(StreamConfig{K: g.NumCategories(), Star: true, N: N})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := NewEpochAccumulator(StreamConfig{K: g.NumCategories(), Star: true, N: N}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []StreamIngester{single, epoch} {
		so, err := NewStreamObserver(g, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := StreamWalks(acc, so, walks...); err != nil {
			t.Fatal(err)
		}
	}
	snapSingle, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapEpoch, err := epoch.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapEpoch.Draws != pooledSample.Len() || snapEpoch.Distinct != snapSingle.Distinct {
		t.Fatalf("epoch draws/distinct = %d/%d, want %d/%d",
			snapEpoch.Draws, snapEpoch.Distinct, pooledSample.Len(), snapSingle.Distinct)
	}
	for c := range want.Sizes {
		for name, got := range map[string]float64{
			"merged-batch":  batch.Sizes[c],
			"stream-single": snapSingle.Sizes()[c],
			"stream-epoch":  snapEpoch.Sizes()[c],
		} {
			if d := math.Abs(got-want.Sizes[c]) / math.Max(1, want.Sizes[c]); d > 1e-9 {
				t.Fatalf("%s size[%d] = %g, pooled batch %g", name, c, got, want.Sizes[c])
			}
		}
	}
	want.Weights.ForEach(func(a, b int32, w float64) {
		if math.IsNaN(w) {
			return
		}
		for name, got := range map[string]float64{
			"merged-batch":  batch.Weights.Get(a, b),
			"stream-single": snapSingle.Weights().Get(a, b),
			"stream-epoch":  snapEpoch.Weights().Get(a, b),
		} {
			if d := math.Abs(got - w); d > 1e-9 {
				t.Fatalf("%s w(%d,%d) = %g, pooled batch %g", name, a, b, got, w)
			}
		}
	})
}

// epochFlushes reads stream_epoch_flushes_total from the process-wide
// metrics exposition.
func epochFlushes(t *testing.T) float64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "stream_epoch_flushes_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatal("stream_epoch_flushes_total is not exposed")
	return 0
}

// TestStreamWalksFlushesPerEpoch checks that replaying walks into an
// epoch-merged accumulator hands it whole walks: each walk is one batch, so
// the walks publish in at most one epoch per 1024 records plus one per walk,
// not one flush per record.
func TestStreamWalksFlushesPerEpoch(t *testing.T) {
	g, err := GeneratePaperGraph(NewRand(61), 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const nWalks, perWalk = 4, 3000
	walks, err := Walks(NewRand(62), g, NewRW(300), nWalks, perWalk)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewEpochAccumulator(StreamConfig{K: g.NumCategories(), Star: true, N: float64(g.N())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	so, err := NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	before := epochFlushes(t)
	if err := StreamWalks(acc, so, walks...); err != nil {
		t.Fatal(err)
	}
	flushes := epochFlushes(t) - before
	if records := nWalks * perWalk; flushes > float64((records+1023)/1024+nWalks) {
		t.Fatalf("%d records in %d walks took %g epoch flushes", records, nWalks, flushes)
	}
	if acc.Draws() != nWalks*perWalk {
		t.Fatalf("draws = %d, want %d", acc.Draws(), nWalks*perWalk)
	}
}

func TestFacadeExtensions(t *testing.T) {
	r := NewRand(31)
	g, err := GeneratePaperGraph(r, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Frontier sampler through the facade.
	s, err := NewFrontier(8, 100).Sample(r, g, 500)
	if err != nil || s.Len() != 500 {
		t.Fatalf("frontier: %v len=%d", err, s.Len())
	}
	o, err := ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DegreeDistribution(o)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("degree distribution sums to %v", sum)
	}
	sizes, err := SizeStar(o, float64(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WithinWeightsStar(o, sizes); err != nil {
		t.Fatal(err)
	}
	oi, err := ObserveInduced(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WithinWeightsInduced(oi); err != nil {
		t.Fatal(err)
	}
	// BFS through the facade: unweighted, clamps at N.
	bs, err := NewBFS().Sample(r, g, 200)
	if err != nil || bs.Len() != 200 || bs.Weights != nil {
		t.Fatalf("bfs: %v", err)
	}
}

// TestFacadeUncertainty exercises the uncertainty-quantification exports:
// batch bootstrap CIs, the streaming one-call path, between-walk replication
// intervals, and the delta-method cross-check — all on one small graph.
func TestFacadeUncertainty(t *testing.T) {
	g, err := GeneratePaperGraph(NewRand(3), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	N := float64(g.N())
	s, err := NewUIS().Sample(NewRand(9), g, 4000)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}

	// Batch: (estimate, CI) pair from one observation. The induced-form
	// size estimator is the one the delta method covers, so the whole test
	// runs on it (the unbiased Hansen–Hurwitz ratio).
	opts := Options{N: N, Size: SizeMethodInduced}
	res, boot, err := EstimateWithCI(o, opts, UncertConfig{B: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := g.NumCategories() - 1 // the 50k category is well sampled
	iv := boot.SizeCI(big, 0.95)
	if !iv.Finite() || !iv.Contains(res.Sizes[big]) {
		t.Fatalf("size CI %+v does not bracket the estimate %v", iv, res.Sizes[big])
	}
	if truth := float64(g.CategorySize(int32(big))); !iv.Contains(truth) {
		t.Errorf("size CI %+v misses truth %v", iv, truth)
	}

	// Streaming: same sample through the one-call path; the deterministic
	// weights make the replicate estimates match the batch path.
	so, err := NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := StreamWithCI(StreamConfig{
		K: g.NumCategories(), Star: true, N: N, Size: SizeMethodInduced,
		Replicates: UncertConfig{B: 120, Seed: 1},
	}, so, s)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Boot == nil {
		t.Fatal("StreamWithCI snapshot carries no bootstrap")
	}
	siv := snap.Boot.SizeCI(big, 0.95)
	if math.Abs(siv.Lo-iv.Lo) > 1e-6*N || math.Abs(siv.Hi-iv.Hi) > 1e-6*N {
		t.Fatalf("streaming CI %+v != batch CI %+v", siv, iv)
	}

	// Replication: pooled multi-walk intervals.
	walks, err := Walks(NewRand(5), g, NewRW(500), 6, 1500)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]*Observation, len(walks))
	for i, w := range walks {
		if obs[i], err = ObserveStar(g, w); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ReplicationCI(opts, 0.95, obs...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks != 6 || !rep.Sizes[big].Contains(rep.Pooled.Sizes[big]) {
		t.Fatalf("replication summary %+v", rep.Sizes[big])
	}

	// Delta method: cross-check against the bootstrap SE on a UIS sample.
	d, err := DeltaSizeCI(o, N, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if bse := boot.SizeSD(big); math.Abs(d.SE[big]-bse)/bse > 0.5 {
		t.Errorf("delta SE %v far from bootstrap SE %v", d.SE[big], bse)
	}
}

// TestFacadeBackends exercises the pluggable-backend surface end to end
// through the facade alone: generate, pack to disk, reopen as a Source,
// wrap it rate-limited, crawl it, and compare against the in-memory crawl.
func TestFacadeBackends(t *testing.T) {
	r := NewRand(5)
	g, err := GeneratePaperGraph(r, 6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.pack")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePack(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPackFile(path, PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	cfg := CrawlConfig{
		Walkers: 2, Star: true, N: float64(g.N()), Seed: 12,
		BurnIn: 100, MaxDraws: 3000, CheckEvery: 1000,
	}
	mem, err := Crawl(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	limited := NewRateLimited(p, RateLimit{})
	packed, err := Crawl(limited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range mem.Snapshot.Result.Sizes {
		a, b := mem.Snapshot.Result.Sizes[c], packed.Snapshot.Result.Sizes[c]
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
			t.Fatalf("size[%d]: in-memory %g, packed %g", c, a, b)
		}
	}
	if !packed.Metered || packed.Queries == 0 {
		t.Fatalf("rate-limited facade crawl: Metered=%v Queries=%d", packed.Metered, packed.Queries)
	}
	if mem.Metered {
		t.Fatal("in-memory crawl claims to be metered")
	}

	// A sampler over the packed source, and the typed sentinel.
	if _, err := NewRW(100).Sample(r, p, 500); err != nil {
		t.Fatalf("RW over the packed source: %v", err)
	}
	empty, err := NewBuilder(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRW(0).Sample(r, empty, 5); !errors.Is(err, ErrNoEdges) {
		t.Fatalf("edgeless graph: %v, want ErrNoEdges", err)
	}
}
