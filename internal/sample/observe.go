package sample

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Observation is what a measurement scenario (§3.2) reveals about a sample.
// It is the sole input of the estimators in internal/core: once built, the
// estimators never touch the underlying graph, faithfully reproducing the
// information constraints of the paper.
//
// Draws of the same node are aggregated per distinct node with a
// multiplicity, which preserves the paper's multiset semantics ("when S
// contains the same node multiple times, we count any corresponding sampled
// edges multiple times as well", §4.2.1) while keeping estimation linear in
// the observed data.
//
// ObserveStar and ObserveInduced build it from a sample, and
// MergeObservations pools star observations; callers may also fill the
// fields directly.
type Observation struct {
	// K is the number of categories in the partition.
	K int
	// Star reports which scenario produced the observation.
	Star bool
	// Draws is the total number of draws |S| (with multiplicity).
	Draws int

	// Per distinct sampled node:
	Nodes  []int32   // node identity (needed e.g. for collision counting)
	Mult   []float64 // number of times the node was drawn
	Weight []float64 // sampling weight w(v) (1 under uniform designs)
	Cat    []int32   // category, possibly graph.None

	// Star scenario only: the degree of each sampled node and its
	// neighbors' categories as a CSR of (category, count) pairs.
	Deg    []float64
	NbrOff []int32
	NbrCat []int32
	NbrCnt []float64

	// Induced scenario only: the edges of G[S], as index pairs (i, j) into
	// the distinct-node arrays with i < j.
	Edges [][2]int32
}

// ObserveInduced performs induced subgraph sampling (§3.2.1): the categories
// of the sampled nodes and the edges among them are observed; nothing else.
func ObserveInduced(src graph.Source, s *Sample) (*Observation, error) {
	return observeStream(src, s, false)
}

// ObserveStar performs (labeled) star sampling (§3.2.2): sampling a node
// additionally reveals its degree and the categories of all its neighbors —
// but not the ties among the neighbors, nor their degrees.
func ObserveStar(src graph.Source, s *Sample) (*Observation, error) {
	return observeStream(src, s, true)
}

// builder aggregates draws into an Observation, one distinct-node entry per
// node in order of first draw.
type builder struct {
	*Observation
	idx map[int32]int32 // node id → distinct-node index
}

func newBuilder(k int, star bool) *builder {
	b := &builder{Observation: &Observation{K: k, Star: star}, idx: make(map[int32]int32)}
	if star {
		b.NbrOff = []int32{0}
	}
	return b
}

// add credits mult draws of node v and returns its distinct-node index;
// fresh reports that v was new, entered with category cat and weight w.
func (b *builder) add(v, cat int32, w, mult float64) (j int32, fresh bool) {
	j, ok := b.idx[v]
	if !ok {
		j = int32(len(b.Nodes))
		b.idx[v] = j
		b.Nodes = append(b.Nodes, v)
		b.Mult = append(b.Mult, 0)
		b.Weight = append(b.Weight, w)
		b.Cat = append(b.Cat, cat)
	}
	b.Mult[j] += mult
	return j, !ok
}

// addStar records the star data of the node add just entered.
func (b *builder) addStar(deg float64, nbrCat []int32, nbrCnt []float64) {
	b.Deg = append(b.Deg, deg)
	b.NbrCat = append(b.NbrCat, nbrCat...)
	b.NbrCnt = append(b.NbrCnt, nbrCnt...)
	b.NbrOff = append(b.NbrOff, int32(len(b.NbrCat)))
}

// observeStream builds the batch observation from the StreamObserver's
// records, which carry a node's star data on its first draw only and each
// induced edge once, reported by the endpoint drawn second; so a first draw
// enters the node with its data and edges, and a re-draw only raises its
// multiplicity. The checks left are those on input from outside the
// program: the sample itself (StreamObserver.CheckSample), a weight
// constant across re-draws (0 inherits it), and the graph's category of
// each node and, under star, of its neighbors. Batch and stream agree on
// the resulting node table by test (TestBatchStreamNodeTableParity in
// internal/stream), not by sharing code: the stream's record check lives
// in internal/stream.
func observeStream(src graph.Source, s *Sample, star bool) (*Observation, error) {
	so, err := NewStreamObserver(src, star)
	if err != nil {
		return nil, err
	}
	if err := so.CheckSample(s); err != nil {
		return nil, err
	}
	b := newBuilder(so.K(), star)
	for i, v := range s.Nodes {
		rec := so.Observe(v, s.Weight(i))
		w := rec.Weight
		if w == 0 {
			w = 1
		}
		j, fresh := b.add(v, rec.Cat, w, 1)
		if !fresh {
			if rec.Weight != 0 && w != b.Weight[j] {
				return nil, fmt.Errorf("sample: draw %d re-draws node %d with sampling weight %g, conflicting with its first draw (weight %g)", i, v, w, b.Weight[j])
			}
			continue
		}
		if rec.Cat != graph.None && (rec.Cat < 0 || int(rec.Cat) >= b.K) {
			return nil, fmt.Errorf("sample: node %d has category %d outside [0,%d)", v, rec.Cat, b.K)
		}
		if star {
			for _, c := range rec.NbrCat {
				if c < 0 || int(c) >= b.K {
					return nil, fmt.Errorf("sample: node %d has neighbor category %d outside [0,%d)", v, c, b.K)
				}
			}
			b.addStar(rec.Deg, rec.NbrCat, rec.NbrCnt)
		}
		for _, p := range rec.Peers {
			b.Edges = append(b.Edges, [2]int32{b.idx[p], j})
		}
	}
	b.Draws = s.Len()
	return b.Observation, nil
}

// MergeObservations pools the star observations of independent crawls into
// one observation equivalent to observing the concatenated sample — the
// paper's Table 2 workflow, where 28 and 25 independent walks feed one
// estimate. Distinct-node entries union; multiplicities of a node drawn in
// several crawls add; and a node whose category, weight, degree, or
// neighbor-category counts differ across inputs is rejected — on a static
// graph those are per-node constants, so a mismatch means the inputs
// describe different populations. Inputs are not modified.
//
// Induced observations cannot be pooled after the fact: separate crawls
// never observe the edges of the pooled G[S] between nodes first seen in
// different crawls, so merging their observations would systematically
// undercount the cut. MergeObservations rejects them — pool the samples
// with Merge and re-observe instead.
func MergeObservations(obs ...*Observation) (*Observation, error) {
	first := slices.IndexFunc(obs, func(o *Observation) bool { return o != nil })
	if first < 0 {
		return nil, fmt.Errorf("sample: no observations to merge")
	}
	b := newBuilder(obs[first].K, true)
	for wi, o := range obs {
		if o == nil {
			// Tolerate nil inputs as no-ops, matching Sums.Merge and
			// PairWeights.Merge.
			continue
		}
		if !o.Star {
			return nil, fmt.Errorf("sample: observation %d is induced; induced crawls never see cross-crawl edges of the pooled G[S] — pool the samples with Merge and re-observe instead", wi)
		}
		if o.K != b.K {
			return nil, fmt.Errorf("sample: observation %d has %d categories, want %d", wi, o.K, b.K)
		}
		for i, v := range o.Nodes {
			j, fresh := b.add(v, o.Cat[i], o.Weight[i], o.Mult[i])
			lo, hi := o.NbrOff[i], o.NbrOff[i+1]
			if fresh {
				b.addStar(o.Deg[i], o.NbrCat[lo:hi], o.NbrCnt[lo:hi])
				continue
			}
			if b.Cat[j] != o.Cat[i] {
				return nil, fmt.Errorf("sample: node %d has category %d in observation %d but %d earlier", v, o.Cat[i], wi, b.Cat[j])
			}
			if b.Weight[j] != o.Weight[i] {
				return nil, fmt.Errorf("sample: node %d has weight %g in observation %d but %g earlier", v, o.Weight[i], wi, b.Weight[j])
			}
			blo, bhi := b.NbrOff[j], b.NbrOff[j+1]
			if b.Deg[j] != o.Deg[i] || !slices.Equal(b.NbrCat[blo:bhi], o.NbrCat[lo:hi]) || !slices.Equal(b.NbrCnt[blo:bhi], o.NbrCnt[lo:hi]) {
				return nil, fmt.Errorf("sample: node %d has star data in observation %d differing from an earlier observation", v, wi)
			}
		}
		b.Draws += o.Draws
	}
	return b.Observation, nil
}

// NbrCount returns star draw i's neighbor count in category c (0 if none).
func (o *Observation) NbrCount(i int, c int32) float64 {
	lo, hi := o.NbrOff[i], o.NbrOff[i+1]
	cats := o.NbrCat[lo:hi]
	k := sort.Search(len(cats), func(j int) bool { return cats[j] >= c })
	if k < len(cats) && cats[k] == c {
		return o.NbrCnt[int(lo)+k]
	}
	return 0
}

// CategoryDrawCounts returns, per category, the number of draws |S_A| and
// the re-weighted size w⁻¹(S_A) = Σ_{v∈S_A} mult(v)/w(v) used throughout
// §4–§5. Uncategorized draws are excluded.
func (o *Observation) CategoryDrawCounts() (draws, reweighted []float64) {
	draws = make([]float64, o.K)
	reweighted = make([]float64, o.K)
	for i, c := range o.Cat {
		if c == graph.None {
			continue
		}
		draws[c] += o.Mult[i]
		reweighted[c] += o.Mult[i] / o.Weight[i]
	}
	return draws, reweighted
}

// TotalReweighted returns w⁻¹(S) = Σ_{v∈S} mult(v)/w(v) over all draws,
// including uncategorized ones (S is the full sample in Eq. (11)).
func (o *Observation) TotalReweighted() float64 {
	var t float64
	for i := range o.Nodes {
		t += o.Mult[i] / o.Weight[i]
	}
	return t
}

// Subsample builds the observation corresponding to the first n draws of the
// original sample. It requires the observation to have been built from the
// full sample by one of the Observe functions and the original sample.
// (Convenience for sweeps; re-observing a prefix directly is equivalent.)
func Subsample(src graph.Source, s *Sample, n int, star bool) (*Observation, error) {
	p := s.Prefix(n)
	if star {
		return ObserveStar(src, p)
	}
	return ObserveInduced(src, p)
}
