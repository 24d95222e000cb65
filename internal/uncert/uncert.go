// Package uncert quantifies the uncertainty of every estimand in the
// system, turning the point estimates of internal/core into (estimate,
// confidence interval) pairs. The paper validates its estimators with NRMSE
// against ground truth (§5–§6); a production deployment has no ground truth,
// so error bars must come from the sample itself. Three complementary
// engines are provided:
//
//   - Streaming online bootstrap (Replicates, BootSnapshot): B replicate
//     copies of the core.Sums sufficient statistics, each updated per draw
//     with a deterministic per-(node, replicate) Poisson(1) weight — the
//     online counterpart of the Efron–Tibshirani resampling the paper
//     recommends in §5.3.2 for Eq. (16). Weights are hash-seeded on
//     (seed, node, replicate), so re-deliveries of a node's records fold in
//     consistently and node-partitioned workers reproduce the single-lock
//     replicates exactly. Snapshots yield percentile CIs for all K×K
//     category-graph entries, the within-category densities, and the §4.3
//     population-size estimate at O(B·K²) cost. This is the general-purpose
//     engine: it applies to any estimand that is a function of the sums, and
//     it is the only one available on a single live stream.
//
//   - Replication (between-walk) variance (ReplicationCI): when an estimate
//     pools m independent crawls (the paper's Table 2 workflow), the spread
//     of the per-walk estimates is a direct, assumption-light variance
//     estimate — the design exploited by Klusowski & Wu's sample-size
//     analysis for subgraph counting. The pooled center comes from the
//     merged sums that core.Sums.Merge already composes; intervals use
//     Student's t with m−1 degrees of freedom. Prefer it whenever ≥ 2
//     independent walks exist: it is the only engine that captures
//     within-walk correlation.
//
//   - Delta-method analytic variance (DeltaSizeCI): the Taylor-linearization
//     variance of the Hansen–Hurwitz ratio estimators |Â| = N·w⁻¹(S_A)/w⁻¹(S)
//     of Eq. (4)/(11), computed in closed form from the per-draw second
//     moments (Sums.RewSq/RewSqA) in O(K). It assumes independent draws, so
//     it is exact for UIS/WIS and only indicative for walks — use it as a
//     cheap cross-check of the bootstrap, not as a replacement.
//
// All three engines consume sufficient statistics only — no raw sample is
// ever rescanned — so they stream, shard and merge exactly like the
// estimators they wrap.
package uncert

import (
	"math"
	"slices"

	"repro/internal/stats"
)

// Config parameterizes the bootstrap engines.
type Config struct {
	// B is the number of bootstrap replicates (0 disables the bootstrap).
	// 50 gives usable standard errors, 200 stable 95% percentile CIs.
	B int
	// Seed seeds the deterministic per-(node, replicate) Poisson weights.
	// Two accumulators with the same Seed assign every node the same
	// replicate weights, which is what makes the replicate sums of epoch
	// locals and of Pool-merged workers equal the single-lock ones.
	Seed uint64
}

// Enabled reports whether the configuration turns the bootstrap on.
func (c Config) Enabled() bool { return c.B > 0 }

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the interval (inclusive).
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Finite reports whether both endpoints are finite.
func (iv Interval) Finite() bool {
	return !math.IsNaN(iv.Lo) && !math.IsInf(iv.Lo, 0) && !math.IsNaN(iv.Hi) && !math.IsInf(iv.Hi, 0)
}

// nanInterval marks an estimand with no usable replicate information.
func nanInterval() Interval { return Interval{math.NaN(), math.NaN()} }

// poissonCum[k] is P(Poisson(1) ≤ k); beyond the last entry the tail mass is
// below 1e-18, under double-precision resolution of the uniform variate.
var poissonCum = func() [20]float64 {
	var cum [20]float64
	p := math.Exp(-1)
	c := p
	cum[0] = c
	for k := 1; k < len(cum); k++ {
		p /= float64(k)
		c += p
		cum[k] = c
	}
	return cum
}()

// poissonThresh[k] = ⌈poissonCum[k]·2⁵³⌉, the integer form of the inverse-CDF
// test. For the 53-bit variate x the float test float64(x)/2⁵³ < cum is
// exact arithmetic (x < 2⁵³ converts exactly, and dividing by a power of two
// only shifts the exponent), so it holds iff the real x < cum·2⁵³, i.e. iff
// x < ⌈cum·2⁵³⌉ — the same classification without any float conversion.
var poissonThresh = func() [len(poissonCum)]uint64 {
	var t [len(poissonCum)]uint64
	for k := range t {
		t[k] = uint64(math.Ceil(poissonCum[k] * (1 << 53)))
	}
	return t
}()

// mix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nodeHash is the per-node half of the weight hash. Loops over a node's
// replicates compute it once and call poissonK per replicate.
func nodeHash(seed uint64, node int32) uint64 {
	return mix64((seed ^ 0x5851f42d4c957f2d) + uint64(uint32(node)))
}

// poissonK returns the Poisson(1) weight, as an integer, of the node with
// hash hn in replicate rep. Weights 0–2 (≈92% of draws) are classified
// without branches: x−t wraps to a value with the top bit set iff x < t.
func poissonK(hn uint64, rep int) uint64 {
	x := mix64(hn+uint64(rep)) >> 11
	if x < poissonThresh[2] {
		return 2 - (x-poissonThresh[0])>>63 - (x-poissonThresh[1])>>63
	}
	for k := 3; k < len(poissonThresh); k++ {
		if x < poissonThresh[k] {
			return uint64(k)
		}
	}
	return uint64(len(poissonThresh))
}

// PoissonWeight returns the deterministic Poisson(1) bootstrap weight of
// node in replicate rep under seed. The weight is a pure function of its
// arguments: every draw of a node carries the same per-replicate weight, so
// replicate sums accumulated in any order, across any partition of the node
// id space, agree exactly.
func PoissonWeight(seed uint64, node int32, rep int) float64 {
	return float64(poissonK(nodeHash(seed, node), rep))
}

// percentile returns the Efron percentile interval of the replicate values
// at the given level, ignoring non-finite replicates (degenerate resamples
// and unresolvable estimands). With no finite replicate the interval is
// NaN. This runs per estimand per /estimate request on the daemon's read
// path, so each endpoint selects the order statistics its quantile
// interpolates between (quantileSelect) in expected linear time instead of
// sorting, and equals what stats.QuantileSorted returns on the sorted
// values.
func percentile(vals []float64, level float64) Interval {
	fin := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			fin = append(fin, v)
		}
	}
	if len(fin) == 0 {
		return nanInterval()
	}
	alpha := (1 - level) / 2
	return Interval{quantileSelect(fin, alpha), quantileSelect(fin, 1-alpha)}
}

// quantileSelect returns stats.QuantileSorted(sorted(xs), q) for
// non-empty xs without NaNs, reordering xs instead of sorting it.
func quantileSelect(xs []float64, q float64) float64 {
	n := len(xs)
	switch {
	case q <= 0:
		return slices.Min(xs)
	case q >= 1:
		return slices.Max(xs)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectNth(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// After selectNth every value past lo is ≥ xs[lo], so the next order
	// statistic is their minimum.
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + slices.Min(xs[lo+1:])*frac
}

// selectNth reorders xs (no NaNs) so that xs[k] holds the k-th smallest
// value, with no larger value before it and no smaller value after it:
// Hoare-partition quickselect with a median-of-three pivot.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ p ≤ xs[i..hi], and every value strictly between
		// j and i equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// sdFinite returns the standard deviation of the finite replicate values
// (NaN when none) — the bootstrap standard error of the estimand.
func sdFinite(vals []float64) float64 {
	var m stats.Moments
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			m.Add(v)
		}
	}
	if m.N() == 0 {
		return math.NaN()
	}
	return m.StdDev()
}
