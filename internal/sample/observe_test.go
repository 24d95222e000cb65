package sample

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// catSource overrides one node's category, standing in for a .pack file
// whose categories are read unvalidated.
type catSource struct {
	graph.Source
	v, cat int32
}

func (c catSource) Category(u int32) int32 {
	if u == c.v {
		return c.cat
	}
	return c.Source.Category(u)
}

// TestObserveRejectsBadSamples feeds malformed samples to every batch entry
// point and requires an error naming the bad draw, never a panic.
func TestObserveRejectsBadSamples(t *testing.T) {
	g := streamTestGraph(t) // 6 nodes, 3 categories
	cases := []struct {
		name    string
		src     graph.Source
		s       *Sample
		inCheck bool // CheckSample alone rejects it
		want    string
	}{
		{"negative id", g, &Sample{Nodes: []int32{0, 1, -1}}, true, "draw 2 names node -1 outside [0,6)"},
		{"id = N", g, &Sample{Nodes: []int32{0, 6}}, true, "draw 1 names node 6 outside [0,6)"},
		{"short weights", g, &Sample{Nodes: []int32{0, 1, 2}, Weights: []float64{1, 1}}, true, "2 weights for 3 draws"},
		{"NaN weight", g, &Sample{Nodes: []int32{0, 1}, Weights: []float64{1, math.NaN()}}, true, "draw 1 (node 1) has invalid sampling weight NaN"},
		{"negative weight", g, &Sample{Nodes: []int32{3}, Weights: []float64{-2}}, true, "draw 0 (node 3) has invalid sampling weight -2"},
		{"re-draw weight conflict", g, &Sample{Nodes: []int32{2, 0, 2}, Weights: []float64{3, 1, 4}}, false,
			"draw 2 re-draws node 2 with sampling weight 4, conflicting with its first draw (weight 3)"},
		{"category out of range", catSource{g, 5, 3}, &Sample{Nodes: []int32{5}}, false, "node 5 has category 3 outside [0,3)"},
		// Star observes node 4's neighbor 5 first ("node 4 has neighbor
		// category 3"); induced reaches node 5's own category.
		{"neighbor category out of range", catSource{g, 5, 3}, &Sample{Nodes: []int32{4, 5}}, false, "category 3 outside [0,3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			so, err := NewStreamObserver(tc.src, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := so.CheckSample(tc.s); tc.inCheck != (err != nil) {
				t.Fatalf("CheckSample: %v", err)
			}
			entries := map[string]func() (*Observation, error){
				"ObserveStar":       func() (*Observation, error) { return ObserveStar(tc.src, tc.s) },
				"ObserveInduced":    func() (*Observation, error) { return ObserveInduced(tc.src, tc.s) },
				"Subsample/star":    func() (*Observation, error) { return Subsample(tc.src, tc.s, tc.s.Len(), true) },
				"Subsample/induced": func() (*Observation, error) { return Subsample(tc.src, tc.s, tc.s.Len(), false) },
			}
			for name, observe := range entries {
				if _, err := observe(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
				}
			}
		})
	}
	// Weight 0 means 1 on a first draw and inherits the node's weight on a
	// re-draw.
	o, err := ObserveStar(g, &Sample{Nodes: []int32{2, 2, 0}, Weights: []float64{3, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Mult[0] != 2 || o.Weight[0] != 3 || o.Weight[1] != 1 {
		t.Fatalf("mult %v weights %v, want node 2 twice at 3 and node 0 at 1", o.Mult, o.Weight)
	}
}

// fuzzWeights are the sampling weights a fuzz input picks from: valid ones
// (0 means 1) and each kind of invalid one.
var fuzzWeights = []float64{0, 1, 2.5, 7, math.NaN(), math.Inf(1), math.Inf(-1), -1}

// decodeFuzzSample reads a Sample from fuzz bytes. The first byte picks
// the weights' length: none, one per draw, one short or one long. Each
// following 5-byte group is a draw: a little-endian int32 node id and an
// index into fuzzWeights.
func decodeFuzzSample(data []byte) *Sample {
	s := &Sample{}
	if len(data) == 0 {
		return s
	}
	var ws []float64
	for b := data[1:]; len(b) >= 5; b = b[5:] {
		s.Nodes = append(s.Nodes, int32(binary.LittleEndian.Uint32(b)))
		ws = append(ws, fuzzWeights[int(b[4])%len(fuzzWeights)])
	}
	switch data[0] % 4 {
	case 1:
		s.Weights = ws
	case 2:
		if len(ws) > 0 {
			s.Weights = ws[:len(ws)-1]
		}
	case 3:
		s.Weights = append(ws, 1)
	}
	return s
}

// FuzzObserveSample feeds arbitrary samples — any int32 ids, any weights,
// a Weights length that differs from Nodes — to both batch observe
// functions over a small categorized graph. Each must return an error or an
// observation whose multiplicities sum to Draws = len(Nodes), with every
// edge (i, j) in range and i < j; neither may panic.
func FuzzObserveSample(f *testing.F) {
	g := streamTestGraph(f)
	draw := func(v int32, w byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(v)), w)
	}
	seed := func(mode byte, draws ...[]byte) []byte {
		out := []byte{mode}
		for _, d := range draws {
			out = append(out, d...)
		}
		return out
	}
	f.Add(seed(0, draw(0, 0), draw(1, 0), draw(0, 0), draw(3, 0), draw(5, 0)))
	f.Add(seed(1, draw(2, 3), draw(2, 3), draw(4, 2), draw(2, 0)))
	f.Add(seed(1, draw(2, 3), draw(2, 2)))
	f.Add(seed(1, draw(1, 4)))
	f.Add(seed(2, draw(1, 1), draw(2, 1)))
	f.Add(seed(3, draw(1, 1)))
	f.Add(seed(0, draw(999999, 0)))
	f.Add(seed(0, draw(-1, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeFuzzSample(data)
		for _, star := range []bool{false, true} {
			var o *Observation
			var err error
			if star {
				o, err = ObserveStar(g, s)
			} else {
				o, err = ObserveInduced(g, s)
			}
			if err != nil {
				continue
			}
			var mult float64
			for _, m := range o.Mult {
				mult += m
			}
			if int(mult) != s.Len() || o.Draws != s.Len() {
				t.Fatalf("star=%v: Σmult %g, draws %d, want %d", star, mult, o.Draws, s.Len())
			}
			for _, e := range o.Edges {
				if e[0] < 0 || e[0] >= e[1] || int(e[1]) >= len(o.Nodes) {
					t.Fatalf("star=%v: edge %v over %d nodes", star, e, len(o.Nodes))
				}
			}
		}
	})
}
