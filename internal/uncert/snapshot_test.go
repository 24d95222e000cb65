package uncert

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/stats"
)

// sortPercentile is percentile as it was written before the selection: the
// finite values are sorted once and both endpoints read with
// stats.QuantileSorted. percentile must reproduce it bit for bit.
func sortPercentile(vals []float64, level float64) Interval {
	fin := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			fin = append(fin, v)
		}
	}
	if len(fin) == 0 {
		return nanInterval()
	}
	sort.Float64s(fin)
	alpha := (1 - level) / 2
	return Interval{stats.QuantileSorted(fin, alpha), stats.QuantileSorted(fin, 1-alpha)}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPercentileMatchesSortReference checks the selection-based percentile
// against the sort-based reference for every n from 1 to 400 over inputs
// with distinct values, heavy ties, all-equal values, presorted and
// reversed runs, and NaN and ±Inf mixed in, at levels including 0 and 1.
// The inputs hold no −0: the reference's own sort leaves the order of −0
// and +0 unspecified, so the sign of a selected zero is not a property of
// either implementation.
func TestPercentileMatchesSortReference(t *testing.T) {
	r := randx.New(23)
	levels := []float64{0, 1, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0 / 3}
	shapes := []string{"distinct", "ties", "equal", "sorted", "reversed", "nonfinite"}
	for n := 1; n <= 400; n++ {
		for _, shape := range shapes {
			vals := make([]float64, n)
			for i := range vals {
				switch shape {
				case "ties":
					vals[i] = float64(r.IntN(4)) - 1.5
				case "equal":
					vals[i] = 7.25
				default:
					vals[i] = r.NormFloat64() * 1e3
				}
			}
			switch shape {
			case "sorted":
				slices.Sort(vals)
			case "reversed":
				slices.Sort(vals)
				slices.Reverse(vals)
			case "nonfinite":
				for i := range vals {
					switch r.IntN(8) {
					case 0:
						vals[i] = math.NaN()
					case 1:
						vals[i] = math.Inf(1)
					case 2:
						vals[i] = math.Inf(-1)
					}
				}
			}
			orig := slices.Clone(vals)
			for _, level := range append(levels, r.Float64()) {
				got, want := percentile(vals, level), sortPercentile(vals, level)
				if !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) {
					t.Fatalf("n=%d %s level=%g: percentile = %v, sort reference = %v", n, shape, level, got, want)
				}
			}
			for i := range vals {
				if !sameBits(vals[i], orig[i]) {
					t.Fatalf("n=%d %s: percentile reordered its input", n, shape)
				}
			}
		}
	}
}

// mapSnapshot is Replicates.Snapshot as it was computed before the pair
// pass: each replicate's pair table is rebuilt from the pair map, the
// replicate is estimated whole with the pair-weight formulas written out,
// and the estimates are transposed into pair vectors by map lookups, which
// allocate a pair's vector when a replicate first weighs it. Failed
// replicates are NaN across every estimand, pair vectors allocated after
// the failure included. The new Snapshot must reproduce it bit for bit.
func mapSnapshot(rs *Replicates, opts core.Options) *BootSnapshot {
	B := rs.cfg.B
	bs := &BootSnapshot{
		B: B, K: rs.k, Sizes: makeGrid(rs.k, B), Within: makeGrid(rs.k, B),
		Pop: make([]float64, B), pairs: make(map[[2]int32][]float64),
	}
	var failed []int
	scratch := core.NewSums(rs.k, rs.star)
	for b := 0; b < B; b++ {
		scratch.Reset()
		rs.fillSums(b, scratch)
		for _, p := range rs.pairs {
			if p.num[b] != 0 {
				scratch.PairNum.Set(p.key[0], p.key[1], p.num[b])
			}
		}
		res, within, err := mapEstimate(scratch, opts)
		if err != nil {
			failed = append(failed, b)
			for c := 0; c < rs.k; c++ {
				bs.Sizes[c][b], bs.Within[c][b] = math.NaN(), math.NaN()
			}
			bs.Pop[b] = math.NaN()
			continue
		}
		for c := 0; c < rs.k; c++ {
			bs.Sizes[c][b], bs.Within[c][b] = res.Sizes[c], within[c]
		}
		res.Weights.ForEach(func(x, y int32, w float64) {
			key := pairCanon(x, y)
			v, ok := bs.pairs[key]
			if !ok {
				v = make([]float64, B)
				bs.pairs[key] = v
			}
			v[b] = w
		})
		bs.Pop[b] = core.PopulationSizeFromSums(scratch.Draws, rs.psi1[b], rs.psiInv[b], rs.coll[b])
	}
	for _, b := range failed {
		for _, v := range bs.pairs {
			v[b] = math.NaN()
		}
	}
	return bs
}

// mapEstimate is estimateSums with Eq. (8)/(15) and Eq. (9)/(16) spelled
// out per pair, as Sums.WeightsInduced and WeightsStar wrote them before
// core.PairWeight.
func mapEstimate(s *core.Sums, opts core.Options) (*core.Result, []float64, error) {
	res, within, err := estimateSums(s, opts)
	if err != nil {
		return nil, nil, err
	}
	w := core.NewPairWeights(s.K)
	s.PairNum.ForEach(func(a, b int32, n float64) {
		if !s.Star {
			if den := s.Rew[a] * s.Rew[b]; den > 0 {
				w.Set(a, b, n/den)
			}
			return
		}
		den := s.Rew[a]*res.Sizes[b] + s.Rew[b]*res.Sizes[a]
		if den > 0 {
			w.Set(a, b, n/den)
		} else if n > 0 {
			w.Set(a, b, math.NaN())
		}
	})
	res.Weights = w
	return res, within, nil
}

// requireSameBoot fails unless two bootstrap snapshots hold bit-identical
// replicate vectors for every estimand, with the same set of pairs.
func requireSameBoot(t *testing.T, got, want *BootSnapshot) {
	t.Helper()
	same := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %d replicates, want %d", name, len(g), len(w))
		}
		for b := range g {
			if !sameBits(g[b], w[b]) {
				t.Fatalf("%s replicate %d: %v, want %v", name, b, g[b], w[b])
			}
		}
	}
	if got.B != want.B || got.K != want.K {
		t.Fatalf("shape B=%d K=%d, want B=%d K=%d", got.B, got.K, want.B, want.K)
	}
	for c := 0; c < want.K; c++ {
		same(fmt.Sprintf("size %d", c), got.Sizes[c], want.Sizes[c])
		same(fmt.Sprintf("within %d", c), got.Within[c], want.Within[c])
	}
	same("pop", got.Pop, want.Pop)
	if len(got.pairs) != len(want.pairs) {
		t.Fatalf("%d pair vectors, want %d", len(got.pairs), len(want.pairs))
	}
	for key, w := range want.pairs {
		g, ok := got.pairs[key]
		if !ok {
			t.Fatalf("pair %v missing", key)
		}
		same(fmt.Sprintf("pair %v", key), g, w)
	}
}

// TestSnapshotMatchesMapPath pins the pair pass of Replicates.Snapshot to
// the per-replicate map path it replaced, bit for bit, on star and induced
// streams under every size method and with N known or not. The short
// streams leave some replicates with zero total weight, which must come out
// NaN across every estimand exactly as before, and some star pairs with a
// zero size plug-in, which weigh NaN; a star size method on an induced
// stream fails every replicate.
func TestSnapshotMatchesMapPath(t *testing.T) {
	const k = 7
	cfg := Config{B: 64, Seed: 5}
	methods := []core.SizeMethod{core.SizeMethodAuto, core.SizeMethodInduced, core.SizeMethodStar, core.SizeMethodStarPooled}
	degenerate, nanWeights := 0, 0
	for _, star := range []bool{true, false} {
		// steps < 0 feeds 3000 steps, resets, and feeds -steps more: Reset
		// keeps the pair vectors as zeros, and a zero vector must not
		// become a pair of the snapshot.
		for _, steps := range []int{2, 5, 40, 3000, -5} {
			rs, err := NewReplicates(k, star, cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed := func(seed uint64, steps int) {
				if star {
					feedStarStream(oneTermFold{rs, NewReplicateFold(k)}, seed, k, steps)
				} else {
					feedInducedStream(rs, cfg, seed, k, steps)
				}
			}
			if steps < 0 {
				feed(1, 3000)
				rs.Reset()
				feed(2, -steps)
			} else {
				feed(uint64(steps), steps)
			}
			for _, m := range methods {
				for _, N := range []float64{0, 5000} {
					opts := core.Options{N: N, Size: m}
					t.Run(fmt.Sprintf("star=%v/steps=%d/%v/N=%g", star, steps, m, N), func(t *testing.T) {
						got := rs.Snapshot(opts)
						requireSameBoot(t, got, mapSnapshot(rs, opts))
						if !star && (m == core.SizeMethodStar || m == core.SizeMethodStarPooled) {
							return
						}
						for b, p := range got.Pop {
							if math.IsNaN(p) {
								degenerate++
								continue
							}
							for _, v := range got.pairs {
								if math.IsNaN(v[b]) {
									nanWeights++
								}
							}
						}
					})
				}
			}
		}
	}
	if degenerate == 0 || nanWeights == 0 {
		t.Fatalf("exercised %d degenerate replicates and %d NaN star weights, want both > 0", degenerate, nanWeights)
	}
}
