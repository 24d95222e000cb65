package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sample"
)

// Sums holds the running Hansen–Hurwitz sufficient statistics from which
// every estimator of this package is computed. Because the paper's
// estimators are design-based sums over sampled nodes, these statistics are
// naturally incremental: folding one more draw in is O(1 + neighbors), and
// any estimate can be produced from the sums alone in O(K² + pairs) without
// rescanning the observation history.
//
// Sums is the single code path shared by the batch estimators (which build
// it from a complete sample.Observation via SumsFromObservation) and by the
// streaming accumulator of internal/stream (which updates it draw by draw).
// For any given Observation, SumsFromObservation performs the identical
// floating-point operations in the identical order as the original
// single-pass estimators, so batch results are bit-for-bit reproducible
// from identical observations; the streaming path groups the same terms
// differently and agrees to ~1e-15 relative error.
//
// Sums is not safe for concurrent use; internal/stream adds the locking.
type Sums struct {
	// K is the number of categories; Star records the scenario.
	K    int
	Star bool

	// Draws is the number of draws folded in (|S|, with multiplicity).
	Draws float64
	// TotalRew is w⁻¹(S) = Σ_v m_v/w(v) over all draws, including
	// uncategorized ones.
	TotalRew float64

	// Rew[A] is w⁻¹(S_A); DrawsA[A] is |S_A|; Rew2[A] is Σ_{v∈A} (m_v/w(v))²
	// (the within-density denominator correction of WithinWeightsInduced).
	Rew    []float64
	DrawsA []float64
	Rew2   []float64

	// RewSq is the per-draw second moment Σ_i z_i² = Σ_v m_v/w(v)² over all
	// draws (z_i = 1/w(x_i)), and RewSqA its per-category restriction — the
	// Taylor-linearization inputs of the delta-method variance in
	// internal/uncert. Unlike Rew2 (squares of per-node totals), both are
	// linear in the multiplicities, so they merge exactly for any inputs.
	RewSq  float64
	RewSqA []float64

	// Star scenario: DegNum = Σ_v m_v·deg(v)/w(v) and its per-category
	// restriction DegNumA (the Eq. (6)/(14) numerators), and NbrNum[B] =
	// Σ_v m_v/w(v)·|E_{v,B}| (the Eq. (7)/(13) numerator).
	DegNum  float64
	DegNumA []float64
	NbrNum  []float64

	// PairNum holds the scenario-dependent numerator of the pair-weight
	// estimators: Σ over observed edges of m_a·m_b/(w(a)·w(b)) for induced
	// (Eq. (8)/(15)), Σ_{a∈S_A} m_a/w(a)·|E_{a,B}| for star (Eq. (9)/(16)).
	// WithinNum is the A = B diagonal feeding the within-density estimators.
	PairNum   *PairWeights
	WithinNum []float64
}

// NewSums returns empty sums over k categories for the given scenario.
func NewSums(k int, star bool) *Sums {
	s := &Sums{
		K:         k,
		Star:      star,
		Rew:       make([]float64, k),
		DrawsA:    make([]float64, k),
		Rew2:      make([]float64, k),
		RewSqA:    make([]float64, k),
		PairNum:   NewPairWeights(k),
		WithinNum: make([]float64, k),
	}
	if star {
		s.DegNumA = make([]float64, k)
		s.NbrNum = make([]float64, k)
	}
	return s
}

// AddNode folds count fresh draws of one node with the given sampling weight
// and category into the mass sums, where prev is the node's multiplicity
// before this call (0 for a first observation). cat may be graph.None, in
// which case only the totals advance.
func (s *Sums) AddNode(cat int32, weight, count, prev float64) {
	s.Draws += count
	s.TotalRew += count / weight
	s.RewSq += count / (weight * weight)
	if cat == graph.None {
		return
	}
	s.DrawsA[cat] += count
	s.Rew[cat] += count / weight
	s.RewSqA[cat] += count / (weight * weight)
	tNew := (prev + count) / weight
	tOld := prev / weight
	s.Rew2[cat] += tNew*tNew - tOld*tOld
}

// AddStar folds the star-scenario terms of count draws of one node: its
// degree and its neighbor category counts (as produced by ObserveStar —
// uncategorized neighbors excluded). Call alongside AddNode. StarFold
// credits the same terms of many nodes at once, by category row.
func (s *Sums) AddStar(cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64) {
	t := count * deg / weight
	s.DegNum += t
	if cat != graph.None {
		s.DegNumA[cat] += t
	}
	r := count / weight
	for j, b := range nbrCat {
		x := r * nbrCnt[j]
		s.NbrNum[b] += x
		if cat == graph.None {
			continue
		}
		if b == cat {
			s.WithinNum[cat] += x
		} else {
			s.PairNum.Add(cat, b, x)
		}
	}
}

// AddEdgeMass folds one induced-scenario edge-mass increment into the pair
// numerators: mass must be the change in m_a·m_b/(w(a)·w(b)) for an edge
// between a node of category catA and one of catB — the full product when
// the edge is first observed, or the marginal term m_b/(w(a)·w(b)) when an
// already-observed endpoint is drawn again.
func (s *Sums) AddEdgeMass(catA, catB int32, mass float64) {
	if catA == graph.None || catB == graph.None {
		return
	}
	if catA == catB {
		s.WithinNum[catA] += mass
	} else {
		s.PairNum.Add(catA, catB, mass)
	}
}

// Merge folds the sufficient statistics of o into s, so that estimates from
// the merged sums describe the pooled sample — the paper's multi-crawl
// workflow (Table 2 aggregates 28 and 25 independent walks into one
// estimate) without replaying raw records. Both sums must cover the same
// partition and scenario.
//
// Star estimates always compose exactly: every statistic the star
// estimators consume is linear in the per-node draw multiplicities, so
// Merge of independently accumulated walks reproduces the estimates of the
// concatenated sample (up to float reassociation; see the package tests).
// The one non-linear field, Rew2, is merged additively and therefore does
// NOT equal the pooled sample's value when inputs share nodes — a node
// drawn in several inputs contributes Σ(m_i/w)² instead of the pooled
// (Σm_i/w)². Rew2 only feeds WithinWeightsInduced today, which is why star
// merging stays exact; a future consumer of Rew2 on merged sums must keep
// this in mind. For the induced scenario the caveat bites: besides Rew2,
// edges of the pooled G[S] between nodes first seen in different inputs
// were never observed by either, so induced sums compose exactly only when
// the inputs observed disjoint node sets (e.g. a hash partition of the id
// space) — merged induced estimates otherwise describe the concatenation
// of separate crawls, not a re-observation of the union. Pool induced
// samples with sample.Merge and re-observe instead.
func (s *Sums) Merge(o *Sums) error {
	if o == nil {
		return nil
	}
	if s.K != o.K {
		return fmt.Errorf("core: cannot merge sums over %d categories into %d", o.K, s.K)
	}
	if s.Star != o.Star {
		return fmt.Errorf("core: cannot merge %s sums into %s sums", scenario(o.Star), scenario(s.Star))
	}
	s.Draws += o.Draws
	s.TotalRew += o.TotalRew
	s.RewSq += o.RewSq
	s.DegNum += o.DegNum
	for c := 0; c < s.K; c++ {
		s.Rew[c] += o.Rew[c]
		s.DrawsA[c] += o.DrawsA[c]
		s.Rew2[c] += o.Rew2[c]
		s.RewSqA[c] += o.RewSqA[c]
		s.WithinNum[c] += o.WithinNum[c]
	}
	if s.Star {
		for c := 0; c < s.K; c++ {
			s.DegNumA[c] += o.DegNumA[c]
			s.NbrNum[c] += o.NbrNum[c]
		}
	}
	return s.PairNum.Merge(o.PairNum)
}

// Reset zeroes the sums in place for reuse, keeping every allocation (the
// per-category slices and the pair table's map storage). Epoch-local
// accumulators call this once per flush; without it each epoch would
// re-allocate 6–8 K-length slices and a map, and the flush path would churn
// the very garbage the thread-local refactor exists to avoid.
func (s *Sums) Reset() {
	s.Draws, s.TotalRew, s.RewSq, s.DegNum = 0, 0, 0, 0
	zero(s.Rew)
	zero(s.DrawsA)
	zero(s.Rew2)
	zero(s.RewSqA)
	zero(s.WithinNum)
	zero(s.DegNumA)
	zero(s.NbrNum)
	s.PairNum.Reset()
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

func scenario(star bool) string {
	if star {
		return "star"
	}
	return "induced"
}

// SumsFromObservation builds the sufficient statistics of a complete batch
// observation. The accumulation order matches the original single-pass
// estimators exactly, so the delegating batch API is numerically unchanged.
func SumsFromObservation(o *sample.Observation) *Sums {
	s := NewSums(o.K, o.Star)
	for i := range o.Nodes {
		s.AddNode(o.Cat[i], o.Weight[i], o.Mult[i], 0)
		if o.Star {
			lo, hi := o.NbrOff[i], o.NbrOff[i+1]
			s.AddStar(o.Cat[i], o.Weight[i], o.Mult[i], o.Deg[i], o.NbrCat[lo:hi], o.NbrCnt[lo:hi])
		}
	}
	for _, e := range o.Edges {
		i, j := e[0], e[1]
		s.AddEdgeMass(o.Cat[i], o.Cat[j], o.Mult[i]*o.Mult[j]/(o.Weight[i]*o.Weight[j]))
	}
	return s
}

// SizeInduced computes Eq. (4)/(11) from the sums (see the package-level
// SizeInduced for semantics).
func (s *Sums) SizeInduced(N float64) []float64 {
	out := make([]float64, s.K)
	if s.TotalRew == 0 {
		return out
	}
	for c := range out {
		out[c] = N * s.Rew[c] / s.TotalRew
	}
	return out
}

// MeanDegrees computes Eq. (6)/(14) from the sums.
func (s *Sums) MeanDegrees() (kV float64, kA []float64, err error) {
	if !s.Star {
		return 0, nil, fmt.Errorf("core: MeanDegrees requires a star observation")
	}
	if s.TotalRew == 0 {
		return math.NaN(), nil, fmt.Errorf("core: empty observation")
	}
	kV = s.DegNum / s.TotalRew
	kA = make([]float64, s.K)
	for c := range kA {
		if s.Rew[c] == 0 {
			kA[c] = math.NaN()
			continue
		}
		kA[c] = s.DegNumA[c] / s.Rew[c]
	}
	return kV, kA, nil
}

// VolumeFractions computes Eq. (7)/(13) from the sums.
func (s *Sums) VolumeFractions() ([]float64, error) {
	if !s.Star {
		return nil, fmt.Errorf("core: VolumeFractions requires a star observation")
	}
	out := make([]float64, s.K)
	if s.DegNum == 0 {
		return out, nil
	}
	for c := range out {
		out[c] = s.NbrNum[c] / s.DegNum
	}
	return out, nil
}

// SizeStar computes Eq. (5)/(12) from the sums, with the footnote-4 fallback
// of the package-level SizeStar.
func (s *Sums) SizeStar(N float64) ([]float64, error) {
	fvol, err := s.VolumeFractions()
	if err != nil {
		return nil, err
	}
	kV, kA, err := s.MeanDegrees()
	if err != nil {
		return nil, err
	}
	out := make([]float64, s.K)
	for c := range out {
		switch {
		case fvol[c] == 0:
			out[c] = 0
		case math.IsNaN(kA[c]) || kA[c] == 0:
			out[c] = N * fvol[c] // footnote-4 fallback: k̂_A := k̂_V
		default:
			out[c] = N * fvol[c] * kV / kA[c]
		}
	}
	return out, nil
}

// SizeStarPooledDegree computes the fully model-based footnote-4 variant.
func (s *Sums) SizeStarPooledDegree(N float64) ([]float64, error) {
	fvol, err := s.VolumeFractions()
	if err != nil {
		return nil, err
	}
	out := make([]float64, s.K)
	for c := range out {
		out[c] = N * fvol[c]
	}
	return out, nil
}

// WeightsInduced computes Eq. (8)/(15) from the sums.
func (s *Sums) WeightsInduced() (*PairWeights, error) {
	if s.Star {
		return nil, fmt.Errorf("core: WeightsInduced requires an induced observation (star observations do not record G[S])")
	}
	out := NewPairWeights(s.K)
	s.PairNum.ForEach(func(a, b int32, n float64) {
		if w, ok := PairWeight(false, n, s.Rew[a], s.Rew[b], 0, 0); ok {
			out.Set(a, b, w)
		}
	})
	return out, nil
}

// WeightsStar computes Eq. (9)/(16) from the sums with the supplied size
// plug-ins (see the package-level WeightsStar for the NaN convention).
func (s *Sums) WeightsStar(sizes []float64) (*PairWeights, error) {
	if !s.Star {
		return nil, fmt.Errorf("core: WeightsStar requires a star observation")
	}
	if len(sizes) != s.K {
		return nil, fmt.Errorf("core: %d size estimates for %d categories", len(sizes), s.K)
	}
	out := NewPairWeights(s.K)
	s.PairNum.ForEach(func(a, b int32, n float64) {
		if w, ok := PairWeight(true, n, s.Rew[a], s.Rew[b], sizes[a], sizes[b]); ok {
			out.Set(a, b, w)
		}
	})
	return out, nil
}

// PairWeight is the per-pair form of Eq. (8)/(15) (induced) and Eq. (9)/(16)
// (star): the weight of pair {A,B} from its numerator num, the inverse-weight
// masses rewA = w⁻¹(S_A) and rewB = w⁻¹(S_B) and, for star, the size
// plug-ins sizeA and sizeB. ok is false when the pair gets no entry in the
// weight table (it then weighs 0). WeightsInduced, WeightsStar and the
// bootstrap's replicate estimates all go through it, so every path computes
// a pair weight with the same floating-point operations.
func PairWeight(star bool, num, rewA, rewB, sizeA, sizeB float64) (w float64, ok bool) {
	if !star {
		if den := rewA * rewB; den > 0 {
			return num / den, true
		}
		return 0, false
	}
	den := rewA*sizeB + rewB*sizeA
	switch {
	case den > 0:
		return num / den, true
	case num > 0:
		return math.NaN(), true
	}
	return 0, false
}

// WithinWeightsInduced computes the within-category densities w(A,A) from
// induced-scenario sums.
func (s *Sums) WithinWeightsInduced() ([]float64, error) {
	if s.Star {
		return nil, fmt.Errorf("core: WithinWeightsInduced requires an induced observation")
	}
	out := make([]float64, s.K)
	for c := range out {
		den := (s.Rew[c]*s.Rew[c] - s.Rew2[c]) / 2
		if den > 0 {
			out[c] = s.WithinNum[c] / den
		}
	}
	return out, nil
}

// WithinWeightsStar computes w(A,A) from star-scenario sums with the
// supplied size plug-ins.
func (s *Sums) WithinWeightsStar(sizes []float64) ([]float64, error) {
	if !s.Star {
		return nil, fmt.Errorf("core: WithinWeightsStar requires a star observation")
	}
	if len(sizes) != s.K {
		return nil, fmt.Errorf("core: %d size estimates for %d categories", len(sizes), s.K)
	}
	out := make([]float64, s.K)
	for c := range out {
		den := s.Rew[c] * (sizes[c] - 1)
		if den > 0 {
			out[c] = s.WithinNum[c] / den
		}
	}
	return out, nil
}

// WithinWeights computes the within-category densities w(A,A) of the sums'
// scenario: WithinWeightsStar with the size plug-ins for star sums,
// WithinWeightsInduced (which needs no sizes) otherwise.
func (s *Sums) WithinWeights(sizes []float64) ([]float64, error) {
	if s.Star {
		return s.WithinWeightsStar(sizes)
	}
	return s.WithinWeightsInduced()
}

// EstimateSizes is the category-size half of Estimate: the sizes by the
// method opts selects, the population size used (1 when unknown) and the
// resolved method.
func (s *Sums) EstimateSizes(opts Options) (sizes []float64, N float64, method SizeMethod, err error) {
	N = opts.N
	if N <= 0 {
		N = 1
	}
	method = opts.Size
	if method == SizeMethodAuto {
		if s.Star {
			method = SizeMethodStar
		} else {
			method = SizeMethodInduced
		}
	}
	switch method {
	case SizeMethodInduced:
		sizes = s.SizeInduced(N)
	case SizeMethodStar:
		sizes, err = s.SizeStar(N)
	case SizeMethodStarPooled:
		sizes, err = s.SizeStarPooledDegree(N)
	default:
		err = fmt.Errorf("core: unknown size method %v", method)
	}
	return sizes, N, method, err
}

// Estimate produces the full category-graph estimate from the sums, exactly
// as the package-level Estimate does from an observation.
func (s *Sums) Estimate(opts Options) (*Result, error) {
	sizes, N, method, err := s.EstimateSizes(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{N: N, Sizes: sizes, SizeMethod: method}
	if s.Star {
		res.WeightKind = "star"
		res.Weights, err = s.WeightsStar(sizes)
	} else {
		res.WeightKind = "induced"
		res.Weights, err = s.WeightsInduced()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
