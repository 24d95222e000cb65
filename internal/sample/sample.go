// Package sample implements the node-sampling layer of the paper (§3):
// independence samplers (UIS, WIS) and crawling samplers (RW, MHRW, WRW,
// S-WRW), together with the two measurement scenarios — induced subgraph
// sampling and star sampling — that turn a sample of nodes into the
// observation the estimators of internal/core consume.
//
// A Sample records the drawn nodes in order, with repetitions (sampling is
// with replacement, §2.3), and the sampling weight w(v) ∝ π(v) of each draw
// so that the Hansen–Hurwitz corrected estimators of §5 can be applied.
package sample

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/randx"
)

// Sample is an ordered probability sample of nodes, possibly with
// repetitions. Weights holds the (non-normalized) sampling weight of each
// draw; a nil Weights means the design is uniform (w ≡ 1).
type Sample struct {
	Nodes   []int32
	Weights []float64
}

// Len returns the number of draws |S|.
func (s *Sample) Len() int { return len(s.Nodes) }

// Weight returns the sampling weight of draw i (1 under uniform designs).
func (s *Sample) Weight(i int) float64 {
	if s.Weights == nil {
		return 1
	}
	return s.Weights[i]
}

// Prefix returns a view of the first n draws (the estimators are evaluated
// on growing prefixes of one long sample in the sweep harness).
func (s *Sample) Prefix(n int) *Sample {
	if n > s.Len() {
		n = s.Len()
	}
	p := &Sample{Nodes: s.Nodes[:n]}
	if s.Weights != nil {
		// A Weights shorter than Nodes stays short in the prefix, for
		// StreamObserver.CheckSample to reject.
		p.Weights = s.Weights[:min(n, len(s.Weights))]
	}
	return p
}

// Thin returns a new sample keeping every t-th draw (§5.4's thinning device
// for reducing walk autocorrelation). t < 1 is treated as 1.
func (s *Sample) Thin(t int) *Sample {
	if t <= 1 {
		return &Sample{Nodes: append([]int32(nil), s.Nodes...), Weights: cloneFloats(s.Weights)}
	}
	out := &Sample{}
	for i := 0; i < s.Len(); i += t {
		out.Nodes = append(out.Nodes, s.Nodes[i])
		if s.Weights != nil {
			out.Weights = append(out.Weights, s.Weights[i])
		}
	}
	return out
}

// Merge concatenates several samples (e.g. independent walks) into one.
// If any input carries weights, the output does too.
func Merge(samples ...*Sample) *Sample {
	out := &Sample{}
	weighted := false
	total := 0
	for _, s := range samples {
		total += s.Len()
		if s.Weights != nil {
			weighted = true
		}
	}
	out.Nodes = make([]int32, 0, total)
	if weighted {
		out.Weights = make([]float64, 0, total)
	}
	for _, s := range samples {
		out.Nodes = append(out.Nodes, s.Nodes...)
		if weighted {
			for i := 0; i < s.Len(); i++ {
				out.Weights = append(out.Weights, s.Weight(i))
			}
		}
	}
	return out
}

func cloneFloats(xs []float64) []float64 {
	if xs == nil {
		return nil
	}
	return append([]float64(nil), xs...)
}

// Sampler produces probability samples of nodes from a graph backend. The
// source parameter is the access model of the walk layer (graph.Source) —
// *graph.Graph satisfies it, as do the out-of-core packed backend and the
// rate-limited remote simulation, so every sampler runs over any of them.
type Sampler interface {
	// Name identifies the sampler in tables and plots ("UIS", "RW", ...).
	Name() string
	// Sample draws n nodes from src using r.
	Sample(r *rand.Rand, src graph.Source, n int) (*Sample, error)
}

// UIS is Uniform Independence Sampling (§3.1.1): nodes drawn independently
// and uniformly, with replacement.
type UIS struct{}

// Name implements Sampler.
func (UIS) Name() string { return "UIS" }

// Sample implements Sampler.
func (UIS) Sample(r *rand.Rand, src graph.Source, n int) (*Sample, error) {
	if src.NumNodes() == 0 {
		return nil, fmt.Errorf("sample: empty graph: %w", ErrNoEdges)
	}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(r.IntN(src.NumNodes()))
	}
	return &Sample{Nodes: nodes}, nil
}

// WIS is Weighted Independence Sampling (§3.1.1): node v is drawn with
// probability proportional to a known weight w(v), with replacement.
type WIS struct {
	name    string
	weights []float64
	alias   *randx.Alias
}

// NewWIS builds a WIS sampler for the given node weights (length must equal
// the target graph's node count).
func NewWIS(weights []float64) (*WIS, error) {
	a, err := randx.NewAlias(weights)
	if err != nil {
		return nil, err
	}
	return &WIS{name: "WIS", weights: append([]float64(nil), weights...), alias: a}, nil
}

// NewDegreeWIS builds the degree-proportional WIS sampler for src — the
// independence design that RW converges to (§3.1.2).
func NewDegreeWIS(src graph.Source) (*WIS, error) {
	w := make([]float64, src.NumNodes())
	for v := range w {
		w[v] = float64(src.Degree(int32(v)))
	}
	s, err := NewWIS(w)
	if err != nil {
		return nil, err
	}
	s.name = "WIS(deg)"
	return s, nil
}

// Name implements Sampler.
func (s *WIS) Name() string { return s.name }

// Sample implements Sampler.
func (s *WIS) Sample(r *rand.Rand, src graph.Source, n int) (*Sample, error) {
	if len(s.weights) != src.NumNodes() {
		return nil, fmt.Errorf("sample: WIS has %d weights for %d nodes", len(s.weights), src.NumNodes())
	}
	nodes := make([]int32, n)
	weights := make([]float64, n)
	for i := range nodes {
		v := s.alias.Draw(r)
		nodes[i] = v
		weights[i] = s.weights[v]
	}
	return &Sample{Nodes: nodes, Weights: weights}, nil
}
