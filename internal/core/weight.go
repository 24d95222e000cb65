package core

import (
	"fmt"
	"math/bits"

	"repro/internal/sample"
)

// PairWeights holds estimated (or exact) category-graph edge weights for
// unordered category pairs {A,B}, A ≠ B. Missing pairs weigh 0.
//
// The table is flat, not a Go map: open addressing with linear probing over
// power-of-two parallel key/value slices, a multiplicative hash of the
// packed pair key, and at most 3/4 load. A star flush adds a handful of pair
// numerators per node it credits, so the probe is on the ingest path; Reset
// and CopyFrom keep the storage and move only flat memory.
type PairWeights struct {
	K     int
	keys  []uint64 // pairEmpty marks a free slot
	vals  []float64
	n     int
	shift uint8 // 64 − log2(len(keys))
}

// pairEmpty marks a free slot. pairKey yields it only for a = b = −1,
// which is not a category pair.
const pairEmpty = ^uint64(0)

// NewPairWeights returns an empty weight table over k categories.
func NewPairWeights(k int) *PairWeights {
	return &PairWeights{K: k}
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// slot returns the index holding key, or the free slot where it belongs.
// The table must be allocated.
func (p *PairWeights) slot(key uint64) int {
	mask := len(p.keys) - 1
	i := int((key * 0x9e3779b97f4a7c15) >> p.shift)
	for p.keys[i] != key && p.keys[i] != pairEmpty {
		i = (i + 1) & mask
	}
	return i
}

// ref returns a pointer to key's value, inserting it with value 0 when
// absent.
func (p *PairWeights) ref(key uint64) *float64 {
	if p.n > 0 {
		if i := p.slot(key); p.keys[i] == key && key != pairEmpty {
			return &p.vals[i]
		}
	}
	return p.insert(key)
}

// insert adds key with value 0 (growing the table past 3/4 load) and
// returns a pointer to its value. key must be absent.
func (p *PairWeights) insert(key uint64) *float64 {
	if key == pairEmpty {
		panic("core: pair (-1,-1) is not a category pair")
	}
	if 4*(p.n+1) > 3*len(p.keys) {
		p.grow()
	}
	i := p.slot(key)
	p.keys[i], p.vals[i] = key, 0
	p.n++
	return &p.vals[i]
}

// grow doubles the table (8 slots at first use) and reinserts every pair.
func (p *PairWeights) grow() {
	keys, vals := p.keys, p.vals
	size := max(8, 2*len(keys))
	p.keys = make([]uint64, size)
	for i := range p.keys {
		p.keys[i] = pairEmpty
	}
	p.vals = make([]float64, size)
	p.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i, k := range keys {
		if k != pairEmpty {
			j := p.slot(k)
			p.keys[j], p.vals[j] = k, vals[i]
		}
	}
}

// Get returns w(a,b) (0 when the pair was never observed).
func (p *PairWeights) Get(a, b int32) float64 {
	key := pairKey(a, b)
	if p.n == 0 || key == pairEmpty {
		return 0
	}
	if i := p.slot(key); p.keys[i] == key {
		return p.vals[i]
	}
	return 0
}

// Set stores w(a,b).
func (p *PairWeights) Set(a, b int32, w float64) { *p.ref(pairKey(a, b)) = w }

// Add accumulates into w(a,b).
func (p *PairWeights) Add(a, b int32, w float64) { *p.ref(pairKey(a, b)) += w }

// Len returns the number of stored pairs.
func (p *PairWeights) Len() int { return p.n }

// Reset removes every stored pair, keeping the table's storage for reuse
// (the pair-table half of Sums.Reset).
func (p *PairWeights) Reset() {
	if p.n == 0 {
		return
	}
	for i := range p.keys {
		p.keys[i] = pairEmpty
	}
	p.n = 0
}

// Merge adds every pair of o into p entrywise: p(a,b) += o(a,b). It is the
// pair-table half of Sums.Merge — when both tables hold Hansen–Hurwitz pair
// numerators of independent samples, the merged table holds the numerators
// of the pooled sample. The tables must cover the same partition.
func (p *PairWeights) Merge(o *PairWeights) error {
	if o == nil {
		return nil
	}
	if p.K != o.K {
		return fmt.Errorf("core: cannot merge pair weights over %d categories into %d", o.K, p.K)
	}
	for i, k := range o.keys {
		if k != pairEmpty {
			*p.ref(k) += o.vals[i]
		}
	}
	return nil
}

// ForEach visits every stored pair (a < b) with its weight, in table order.
func (p *PairWeights) ForEach(fn func(a, b int32, w float64)) {
	for i, k := range p.keys {
		if k != pairEmpty {
			fn(int32(k>>32), int32(k&0xffffffff), p.vals[i])
		}
	}
}

// WeightsInduced estimates all category edge weights under induced subgraph
// sampling, Eq. (8) (uniform) / Eq. (15) (weighted):
//
//	ŵ(A,B) = Σ_{a∈S_A} Σ_{b∈S_B} 1{{a,b}∈E} / (w(a)·w(b))
//	         ───────────────────────────────────────────────
//	                    w⁻¹(S_A) · w⁻¹(S_B)
//
// Repeated draws count with multiplicity (§4.2.1). Pairs with nothing
// observed estimate to 0.
func WeightsInduced(o *sample.Observation) (*PairWeights, error) {
	return SumsFromObservation(o).WeightsInduced()
}

// WeightsStar estimates all category edge weights under star sampling,
// Eq. (9) (uniform) / Eq. (16) (weighted):
//
//	ŵ(A,B) = ( Σ_{a∈S_A} |E_{a,B}|/w(a) + Σ_{b∈S_B} |E_{b,A}|/w(b) )
//	         ─────────────────────────────────────────────────────────
//	                  w⁻¹(S_A)·|B̂|  +  w⁻¹(S_B)·|Â|
//
// sizes supplies the plugged-in category size estimates |Â| (§4.2.2 and
// §5.3.2 allow either Eq. (4)/(11) or Eq. (5)/(12); pass whichever has the
// smaller variance for the application). Pairs whose denominator is zero
// while the numerator is positive yield NaN (the observation carries
// evidence of a cut whose category sizes were estimated as zero — use the
// star size estimator to avoid this at small sample sizes).
func WeightsStar(o *sample.Observation, sizes []float64) (*PairWeights, error) {
	return SumsFromObservation(o).WeightsStar(sizes)
}

// WeightStar is the single-pair convenience form of WeightsStar.
func WeightStar(o *sample.Observation, a, b int32, sizeA, sizeB float64) (float64, error) {
	if !o.Star {
		return 0, fmt.Errorf("core: WeightStar requires a star observation")
	}
	sizes := make([]float64, o.K)
	sizes[a], sizes[b] = sizeA, sizeB
	w, err := WeightsStar(o, sizes)
	if err != nil {
		return 0, err
	}
	return w.Get(a, b), nil
}

// SizeMethod selects the category-size estimator plugged into Estimate and
// WeightsStar.
type SizeMethod int

const (
	// SizeMethodAuto uses the star estimator on star observations and the
	// induced estimator otherwise.
	SizeMethodAuto SizeMethod = iota
	// SizeMethodInduced is Eq. (4)/(11).
	SizeMethodInduced
	// SizeMethodStar is Eq. (5)/(12).
	SizeMethodStar
	// SizeMethodStarPooled is the footnote-4 variant with k̂_A := k̂_V.
	SizeMethodStarPooled
)

// String implements fmt.Stringer.
func (m SizeMethod) String() string {
	switch m {
	case SizeMethodAuto:
		return "auto"
	case SizeMethodInduced:
		return "induced"
	case SizeMethodStar:
		return "star"
	case SizeMethodStarPooled:
		return "star-pooled"
	}
	return fmt.Sprintf("SizeMethod(%d)", int(m))
}

// Options configures Estimate.
type Options struct {
	// N is the population size |V|; 0 means unknown, in which case sizes
	// and weights are produced up to a constant of proportionality with
	// N := 1 (§4.3).
	N float64
	// Size selects the size estimator.
	Size SizeMethod
}

// Result is a complete category-graph estimate.
type Result struct {
	// N is the population size used (1 when unknown).
	N float64
	// Sizes[c] is the estimated |A| of category c.
	Sizes []float64
	// Weights holds the estimated edge weights ŵ(A,B).
	Weights *PairWeights
	// SizeMethod and WeightScenario record how the estimate was produced.
	SizeMethod SizeMethod
	WeightKind string // "induced" or "star"
}

// Estimate produces the full category-graph estimate from one observation:
// category sizes by the selected method and edge weights by the estimator
// matching the observation's scenario (Eq. 8/15 for induced, Eq. 9/16 for
// star with the selected size plug-in).
func Estimate(o *sample.Observation, opts Options) (*Result, error) {
	return SumsFromObservation(o).Estimate(opts)
}
