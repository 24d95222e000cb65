package uncert

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/randx"
	"repro/internal/sample"
	"repro/internal/stats"
)

// testGraph builds a small paper-model graph shared across the tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Paper(randx.New(11), gen.PaperConfig{
		Sizes:   []int64{150, 300, 600, 1200},
		K:       10,
		Alpha:   0.4,
		Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bigGraph is large enough that moderate UIS samples have multiplicities
// near 1, making node-level and draw-level resampling comparable.
func bigGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Paper(randx.New(29), gen.PaperConfig{
		Sizes:   []int64{1000, 2000, 4000, 8000},
		K:       10,
		Alpha:   0.4,
		Connect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPoissonWeightDeterministicAndPoisson(t *testing.T) {
	// Pure function of (seed, node, rep).
	if PoissonWeight(7, 123, 5) != PoissonWeight(7, 123, 5) {
		t.Fatal("PoissonWeight must be deterministic")
	}
	// Mean and variance of Poisson(1) are both 1; frequencies match e⁻¹.
	var m stats.Moments
	zero := 0
	const nodes, reps = 2000, 50
	for v := int32(0); v < nodes; v++ {
		for b := 0; b < reps; b++ {
			w := PoissonWeight(42, v, b)
			if w < 0 || w != math.Trunc(w) {
				t.Fatalf("weight %v is not a non-negative integer", w)
			}
			m.Add(w)
			if w == 0 {
				zero++
			}
		}
	}
	n := float64(nodes * reps)
	if math.Abs(m.Mean()-1) > 0.02 {
		t.Errorf("mean weight %v, want ≈ 1", m.Mean())
	}
	if math.Abs(m.Var()-1) > 0.05 {
		t.Errorf("weight variance %v, want ≈ 1", m.Var())
	}
	if p0 := float64(zero) / n; math.Abs(p0-math.Exp(-1)) > 0.01 {
		t.Errorf("P(0) = %v, want ≈ e⁻¹", p0)
	}
	// Different seeds decorrelate the weights.
	same := 0
	for v := int32(0); v < 1000; v++ {
		if PoissonWeight(1, v, 0) == PoissonWeight(2, v, 0) {
			same++
		}
	}
	if same > 700 { // two independent Poisson(1) agree w.p. Σp_k² ≈ 0.47
		t.Errorf("seeds 1 and 2 agree on %d/1000 nodes — weights not reseeded", same)
	}
}

// poissonWeightFloat is the reference form of PoissonWeight: the two-level
// hash evaluated per call and the uniform variate classified against
// poissonCum in floating point.
func poissonWeightFloat(seed uint64, node int32, rep int) float64 {
	h := mix64(mix64((seed^0x5851f42d4c957f2d)+uint64(uint32(node))) + uint64(rep))
	u := float64(h>>11) / (1 << 53)
	for k := range poissonCum {
		if u < poissonCum[k] {
			return float64(k)
		}
	}
	return float64(len(poissonCum))
}

// TestPoissonWeightGolden pins the weight values themselves. The streaming
// and offline bootstrap paths, checkpoints and merged worker sums all share
// PoissonWeight, so a change to it would move every replicate in lockstep
// and no parity test would notice; this table and the float reference
// catch it.
func TestPoissonWeightGolden(t *testing.T) {
	reps := [6]int{0, 1, 2, 199, 256, 1000}
	golden := []struct {
		seed uint64
		node int32
		w    [6]float64 // at reps
	}{
		{0x0, 0, [6]float64{0, 2, 0, 0, 2, 1}},
		{0x0, 1, [6]float64{1, 1, 0, 0, 2, 0}},
		{0x0, -1, [6]float64{2, 0, 0, 2, 1, 2}},
		{0x0, -2147483648, [6]float64{1, 2, 0, 1, 2, 2}},
		{0x0, 2147483647, [6]float64{3, 0, 0, 0, 1, 1}},
		{0x0, 123456, [6]float64{0, 0, 1, 1, 0, 2}},
		{0x2a, 0, [6]float64{0, 1, 1, 0, 0, 1}},
		{0x2a, 1, [6]float64{0, 0, 0, 1, 2, 0}},
		{0x2a, -1, [6]float64{4, 0, 1, 2, 2, 2}},
		{0x2a, -2147483648, [6]float64{1, 3, 1, 1, 1, 1}},
		{0x2a, 2147483647, [6]float64{1, 0, 0, 2, 0, 0}},
		{0x2a, 123456, [6]float64{0, 0, 1, 1, 1, 1}},
		{0xdeadbeefcafef00d, 0, [6]float64{2, 4, 0, 1, 1, 2}},
		{0xdeadbeefcafef00d, 1, [6]float64{1, 0, 1, 1, 1, 1}},
		{0xdeadbeefcafef00d, -1, [6]float64{2, 0, 3, 0, 0, 1}},
		{0xdeadbeefcafef00d, -2147483648, [6]float64{0, 1, 1, 0, 1, 1}},
		{0xdeadbeefcafef00d, 2147483647, [6]float64{2, 2, 1, 2, 2, 1}},
		{0xdeadbeefcafef00d, 123456, [6]float64{2, 1, 2, 1, 0, 1}},
	}
	for _, g := range golden {
		for i, rep := range reps {
			if got := PoissonWeight(g.seed, g.node, rep); got != g.w[i] {
				t.Errorf("PoissonWeight(%#x, %d, %d) = %v, want %v", g.seed, g.node, rep, got, g.w[i])
			}
		}
	}
	// Weights ≥ 3 take poissonK's loop; pin a few from the far tail.
	for _, g := range []struct {
		node int32
		rep  int
		w    float64
	}{{32, 2, 5}, {1, 0, 6}, {3967, 3, 7}} {
		if got := PoissonWeight(7, g.node, g.rep); got != g.w {
			t.Errorf("PoissonWeight(7, %d, %d) = %v, want %v", g.node, g.rep, got, g.w)
		}
	}

	r := randx.New(5)
	for i := 0; i < 1_000_000; i++ {
		seed, node, rep := r.Uint64(), int32(r.Uint32()), r.IntN(4096)
		if got, want := PoissonWeight(seed, node, rep), poissonWeightFloat(seed, node, rep); got != want {
			t.Fatalf("PoissonWeight(%#x, %d, %d) = %v, float reference %v", seed, node, rep, got, want)
		}
	}
}

// TestPoissonThresholdsMatchFloat checks the integer thresholds against the
// float test they replace, on both sides of every boundary.
func TestPoissonThresholdsMatchFloat(t *testing.T) {
	for k, tk := range poissonThresh {
		for _, x := range []uint64{tk - 1, tk, tk + 1} {
			if x >= 1<<53 {
				continue // the variate has 53 bits
			}
			if got, want := x < tk, float64(x)/(1<<53) < poissonCum[k]; got != want {
				t.Errorf("k=%d x=%d: integer test %v, float test %v", k, x, got, want)
			}
		}
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{1, 3}
	if !iv.Contains(1) || !iv.Contains(3) || iv.Contains(0.5) {
		t.Error("Contains is wrong")
	}
	if iv.Width() != 2 || !iv.Finite() {
		t.Error("Width/Finite are wrong")
	}
	if nanInterval().Finite() || (Interval{0, math.Inf(1)}).Finite() {
		t.Error("non-finite intervals must report so")
	}
	// percentile ignores non-finite replicates entirely.
	got := percentile([]float64{math.NaN(), 1, 2, 3, math.Inf(1)}, 1)
	if got.Lo != 1 || got.Hi != 3 {
		t.Errorf("percentile = %+v", got)
	}
	if iv := percentile([]float64{math.NaN()}, 0.95); !math.IsNaN(iv.Lo) {
		t.Error("all-NaN replicates must give a NaN interval")
	}
}

// streamReplay drives a Replicates instance through the same event sequence
// the streaming accumulator produces for a star sample, so the offline
// constructor can be checked against the incremental path without importing
// internal/stream.
func streamReplay(t *testing.T, g *graph.Graph, s *sample.Sample, cfg Config) *Replicates {
	t.Helper()
	so, err := sample.NewStreamObserver(g, true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewReplicates(g.NumCategories(), true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mult := map[int32]float64{}
	type starData struct {
		deg float64
		cat []int32
		cnt []float64
	}
	stars := map[int32]*starData{}
	f := NewReplicateFold(g.NumCategories())
	for i, v := range s.Nodes {
		rec := so.Observe(v, s.Weight(i))
		w := rec.Weight
		if w == 0 {
			w = 1
		}
		if _, ok := stars[v]; !ok {
			stars[v] = &starData{deg: rec.Deg, cat: rec.NbrCat, cnt: rec.NbrCnt}
		}
		sd := stars[v]
		prev := mult[v]
		mult[v]++
		f.AddDraws(v, rec.Cat, w, 1, prev)
		f.AddStar(v, rec.Cat, w, 1, sd.deg, sd.cat, sd.cnt)
		f.Fold(rs)
	}
	return rs
}

func TestOfflineMatchesIncrementalReplicates(t *testing.T) {
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(3), g, 600)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{B: 40, Seed: 99}
	inc := streamReplay(t, g, s, cfg)
	off, err := ReplicatesFromObservation(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{N: float64(g.N())}
	a, b := inc.Snapshot(opts), off.Snapshot(opts)
	for c := 0; c < g.NumCategories(); c++ {
		for r := 0; r < cfg.B; r++ {
			if relOrAbs(a.Sizes[c][r], b.Sizes[c][r]) > 1e-9 {
				t.Fatalf("replicate %d size[%d]: incremental %v vs offline %v", r, c, a.Sizes[c][r], b.Sizes[c][r])
			}
		}
	}
	for r := 0; r < cfg.B; r++ {
		ap, bp := a.Pop[r], b.Pop[r]
		if math.IsInf(ap, 1) && math.IsInf(bp, 1) {
			continue
		}
		if relOrAbs(ap, bp) > 1e-9 {
			t.Fatalf("replicate %d pop: %v vs %v", r, ap, bp)
		}
	}
}

func relOrAbs(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	return stats.RelErr(a, b)
}

func TestReplicatesMergeMatchesConcatenation(t *testing.T) {
	g := testGraph(t)
	r := randx.New(5)
	s1, err := sample.UIS{}.Sample(r, g, 400)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sample.UIS{}.Sample(r, g, 500)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := sample.ObserveStar(g, s1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sample.ObserveStar(g, s2)
	if err != nil {
		t.Fatal(err)
	}
	pooledObs, err := sample.MergeObservations(o1, o2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{B: 30, Seed: 17}
	r1, err := ReplicatesFromObservation(o1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReplicatesFromObservation(o2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Merge(r2); err != nil {
		t.Fatal(err)
	}
	pooled, err := ReplicatesFromObservation(pooledObs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{N: float64(g.N())}
	a, b := r1.Snapshot(opts), pooled.Snapshot(opts)
	for c := 0; c < g.NumCategories(); c++ {
		for rep := 0; rep < cfg.B; rep++ {
			if relOrAbs(a.Sizes[c][rep], b.Sizes[c][rep]) > 1e-9 {
				t.Fatalf("merged vs pooled replicate %d size[%d]: %v vs %v", rep, c, a.Sizes[c][rep], b.Sizes[c][rep])
			}
		}
	}
	// Mismatched configs must refuse to merge.
	r3, err := ReplicatesFromObservation(o2, Config{B: 30, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Merge(r3); err == nil {
		t.Fatal("merging replicates with different seeds must fail")
	}
}

func TestBootstrapAgreesWithOfflineResampling(t *testing.T) {
	// The streaming bootstrap resamples nodes with Poisson(1) weights; the
	// classic offline bootstrap resamples draws. On a UIS sample with few
	// repeated draws (n ≪ N) both must report the same standard error and
	// percentile interval up to Monte-Carlo noise, so this test uses a graph
	// large enough that multiplicities stay near 1.
	g := bigGraph(t)
	const n, B = 1500, 500
	s, err2 := sample.UIS{}.Sample(randx.New(21), g, n)
	if err2 != nil {
		t.Fatal(err2)
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	N := float64(g.N())
	rs, err := ReplicatesFromObservation(o, Config{B: B, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	boot := rs.Snapshot(core.Options{N: N, Size: core.SizeMethodInduced})

	// Offline: resample the draws of the same sample and recompute the
	// Eq. (4) size estimate per category.
	for _, c := range []int32{1, 3} {
		cats := make([]int32, n)
		for i, v := range s.Nodes {
			cats[i] = g.Category(v)
		}
		mean, sd, lo, hi := stats.BootstrapCI(randx.New(77), n, B, 0.95, func(idx []int) float64 {
			var inCat, tot float64
			for _, i := range idx {
				if cats[i] == c {
					inCat++
				}
				tot++
			}
			return N * inCat / tot
		})
		if math.IsNaN(mean) {
			t.Fatalf("offline bootstrap degenerate for category %d", c)
		}
		gotSD := boot.SizeSD(int(c))
		if stats.RelErr(gotSD, sd) > 0.20 {
			t.Errorf("category %d: streaming bootstrap SE %v vs offline %v", c, gotSD, sd)
		}
		iv := boot.SizeCI(int(c), 0.95)
		if stats.RelErr(iv.Width(), hi-lo) > 0.25 {
			t.Errorf("category %d: CI width %v vs offline %v", c, iv.Width(), hi-lo)
		}
		// Both intervals must cover the point estimate.
		pt := N * float64(countCat(cats, c)) / float64(n)
		if !iv.Contains(pt) {
			t.Errorf("category %d: CI %+v misses point estimate %v", c, iv, pt)
		}
	}
}

func countCat(cats []int32, c int32) int {
	n := 0
	for _, x := range cats {
		if x == c {
			n++
		}
	}
	return n
}

func TestDeltaSizeCIClosedForm(t *testing.T) {
	// Uniform UIS draws: the delta-method variance must reduce to the
	// classical N²·p(1−p)/(n−1), and agree with the bootstrap SE. The large
	// graph keeps multiplicities near 1, where the node-level bootstrap and
	// the per-draw linearization measure the same variance.
	g := bigGraph(t)
	const n = 2000
	s, err := sample.UIS{}.Sample(randx.New(31), g, n)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sample.ObserveInduced(g, s)
	if err != nil {
		t.Fatal(err)
	}
	sums := core.SumsFromObservation(o)
	N := float64(g.N())
	d, err := DeltaSizeCI(sums, N, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g.NumCategories(); c++ {
		p := sums.Rew[c] / sums.TotalRew
		want := N * math.Sqrt(p*(1-p)/float64(n-1))
		if stats.RelErr(d.SE[c], want) > 1e-9 {
			t.Fatalf("category %d: delta SE %v, closed form %v", c, d.SE[c], want)
		}
		if !d.CI[c].Contains(d.Sizes[c]) {
			t.Fatalf("category %d: CI %+v misses the estimate", c, d.CI[c])
		}
		z := stats.NormalQuantile(0.975)
		if math.Abs(d.CI[c].Width()-2*z*d.SE[c]) > 1e-6*d.SE[c] {
			t.Fatalf("category %d: CI width %v vs 2z·SE %v", c, d.CI[c].Width(), 2*z*d.SE[c])
		}
	}
	// Cross-check against the bootstrap.
	rs, err := ReplicatesFromObservation(o, Config{B: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	boot := rs.Snapshot(core.Options{N: N, Size: core.SizeMethodInduced})
	for _, c := range []int{0, 2} {
		if stats.RelErr(boot.SizeSD(c), d.SE[c]) > 0.2 {
			t.Errorf("category %d: bootstrap SE %v vs delta SE %v", c, boot.SizeSD(c), d.SE[c])
		}
	}
	// Degenerate inputs.
	if _, err := DeltaSizeCI(core.NewSums(3, false), 1, 0.95); err == nil {
		t.Error("empty sums must fail")
	}
	if _, err := DeltaSizeCI(sums, N, 1.5); err == nil {
		t.Error("invalid level must fail")
	}
}

func TestReplicationCI(t *testing.T) {
	g := testGraph(t)
	const walks, perWalk = 8, 800
	r := randx.New(13)
	N := float64(g.N())
	var walkSums []*core.Sums
	for i := 0; i < walks; i++ {
		s, err := sample.UIS{}.Sample(r, g, perWalk)
		if err != nil {
			t.Fatal(err)
		}
		o, err := sample.ObserveStar(g, s)
		if err != nil {
			t.Fatal(err)
		}
		walkSums = append(walkSums, core.SumsFromObservation(o))
	}
	rep, err := ReplicationCI(walkSums, core.Options{N: N}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks != walks || rep.Level != 0.95 {
		t.Fatalf("summary header %+v", rep)
	}
	// The pooled center must equal the merged-sums estimate.
	merged := core.NewSums(g.NumCategories(), true)
	for _, w := range walkSums {
		if err := merged.Merge(w); err != nil {
			t.Fatal(err)
		}
	}
	wantRes, err := merged.Estimate(core.Options{N: N})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g.NumCategories(); c++ {
		if rep.Pooled.Sizes[c] != wantRes.Sizes[c] {
			t.Fatalf("pooled size[%d] %v != merged %v", c, rep.Pooled.Sizes[c], wantRes.Sizes[c])
		}
		if !rep.Sizes[c].Contains(rep.Pooled.Sizes[c]) {
			t.Fatalf("size CI %+v misses pooled center", rep.Sizes[c])
		}
		if !(rep.SizesSE[c] > 0) {
			t.Fatalf("size SE[%d] = %v", c, rep.SizesSE[c])
		}
	}
	// 8 independent UIS walks of a well-sampled category: a 99% interval
	// must cover truth on this seeded, deterministic input (the star size
	// estimator carries a small finite-sample bias, so the 95% one may
	// legitimately shave it).
	rep99, err := ReplicationCI(walkSums, core.Options{N: N}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	big := g.NumCategories() - 1
	if truth := float64(g.CategorySize(int32(big))); !rep99.Sizes[big].Contains(truth) {
		t.Errorf("size CI %+v misses truth %v for the largest category", rep99.Sizes[big], truth)
	}
	// Pair intervals exist for pairs the pooled estimate contains.
	found := false
	rep.Pooled.Weights.ForEach(func(a, b int32, w float64) {
		if w > 0 && !found {
			found = true
			iv := rep.WeightCI(a, b)
			if math.IsNaN(iv.Lo) {
				t.Errorf("pair (%d,%d) has NaN interval", a, b)
			}
			if !iv.Contains(w) {
				t.Errorf("pair (%d,%d) interval %+v misses pooled %v", a, b, iv, w)
			}
		}
	})
	if !found {
		t.Fatal("pooled estimate has no positive pair weights")
	}
	if iv := rep.WeightCI(0, 0); iv.Lo != 0 || iv.Hi != 0 {
		t.Errorf("unobserved pair must yield [0,0], got %+v", iv)
	}
	// Fewer than two walks is an error.
	if _, err := ReplicationCI(walkSums[:1], core.Options{N: N}, 0.95); err == nil {
		t.Error("one walk must fail")
	}
	if _, err := ReplicationCI(walkSums, core.Options{N: N}, 0); err == nil {
		t.Error("level 0 must fail")
	}
}

func TestReplicationCIInducedScenario(t *testing.T) {
	// The induced scenario pools as a concatenation of separate crawls —
	// ReplicationCI must work there too.
	g := testGraph(t)
	r := randx.New(19)
	var walkSums []*core.Sums
	for i := 0; i < 4; i++ {
		s, err := sample.UIS{}.Sample(r, g, 700)
		if err != nil {
			t.Fatal(err)
		}
		o, err := sample.ObserveInduced(g, s)
		if err != nil {
			t.Fatal(err)
		}
		walkSums = append(walkSums, core.SumsFromObservation(o))
	}
	rep, err := ReplicationCI(walkSums, core.Options{N: float64(g.N())}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g.NumCategories(); c++ {
		if math.IsNaN(rep.Sizes[c].Lo) {
			t.Fatalf("induced size CI[%d] is NaN", c)
		}
	}
}

func TestBootSnapshotCoversTruthOnUIS(t *testing.T) {
	// Single-stream sanity: a 95% bootstrap CI from one decent UIS sample
	// should cover the true size of the bigger categories (seeded).
	g := testGraph(t)
	s, err := sample.UIS{}.Sample(randx.New(23), g, 2500)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sample.ObserveStar(g, s)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReplicatesFromObservation(o, Config{B: 200, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	boot := rs.Snapshot(core.Options{N: float64(g.N()), Size: core.SizeMethodStar})
	for c := g.NumCategories() - 3; c < g.NumCategories(); c++ {
		iv := boot.SizeCI(c, 0.95)
		if !iv.Finite() {
			t.Fatalf("size CI[%d] not finite: %+v", c, iv)
		}
		if truth := float64(g.CategorySize(int32(c))); !iv.Contains(truth) {
			t.Errorf("size CI[%d] %+v misses truth %v", c, iv, truth)
		}
	}
	// Within-density and population intervals are served too.
	if iv := boot.WithinCI(g.NumCategories()-1, 0.95); !iv.Finite() {
		t.Errorf("within CI not finite: %+v", iv)
	}
	if iv := boot.PopCI(0.95); math.IsNaN(iv.Lo) {
		t.Skip("no collisions in any replicate (UIS on this graph) — pop CI undefined")
	}
}
