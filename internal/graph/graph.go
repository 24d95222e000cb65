// Package graph implements the static undirected graph substrate used by the
// whole repository: a compressed sparse row (CSR) adjacency structure with an
// optional partition of the nodes into categories.
//
// The notation follows Section 2 of the paper: a graph G = (V, E) with
// N = |V| nodes, node degrees deg(v), volumes vol(A) = Σ_{v∈A} deg(v), and a
// partition of V into categories that induces the category graph GC whose
// edge weights are w(A,B) = |E_{A,B}| / (|A|·|B|).
package graph

import (
	"fmt"
	"sort"
)

// None marks a node that belongs to no category (Facebook users who declare
// no network, in the paper's terms). Such nodes are sampled and traversed but
// contribute to no category estimate.
const None int32 = -1

// Graph is an immutable undirected graph in CSR form. Node IDs are dense
// integers in [0, N). The zero value is an empty graph.
type Graph struct {
	off []int64 // off[v]..off[v+1] indexes adj
	adj []int32 // concatenated sorted neighbor lists

	cat      []int32  // category per node, None if absent; nil if no partition
	catNames []string // optional category names
	catSize  []int64  // nodes per category
	catVol   []int64  // volume per category
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.adj)) / 2 }

// Degree returns deg(v).
func (g *Graph) Degree(v int32) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether {u, v} ∈ E. It runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Volume returns vol(V) = Σ_v deg(v) = 2|E| (Eq. 1 applied to all of V).
func (g *Graph) Volume() int64 { return int64(len(g.adj)) }

// VolumeOf returns vol(A) for a set of nodes A.
func (g *Graph) VolumeOf(nodes []int32) int64 {
	var s int64
	for _, v := range nodes {
		s += int64(g.Degree(v))
	}
	return s
}

// MeanDegree returns k_V, the average node degree.
func (g *Graph) MeanDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(g.Volume()) / float64(g.N())
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int32)) {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are discarded at Build time, matching the paper's simple
// undirected graph model.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	bad   bool
	badAt [2]int32
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Out-of-range endpoints are
// reported by Build.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		if !b.bad {
			b.bad = true
			b.badAt = [2]int32{u, v}
		}
		return
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// Build assembles the CSR graph. It is safe to call Build once; the builder
// must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.bad {
		return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", b.badAt[0], b.badAt[1], b.n)
	}
	n := b.n
	deg := make([]int64, n+1)
	for i := range b.us {
		if b.us[i] == b.vs[i] {
			continue // self-loop
		}
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	adj := make([]int32, deg[n])
	pos := make([]int64, n)
	copy(pos, deg[:n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u == v {
			continue
		}
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	b.us, b.vs = nil, nil
	g := &Graph{off: deg, adj: adj}
	g.sortAndDedup()
	return g, nil
}

// sortAndDedup sorts each adjacency list and removes duplicate entries,
// compacting the CSR arrays in place.
func (g *Graph) sortAndDedup() {
	n := g.N()
	newOff := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		nb := g.adj[lo:hi]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		start := w
		for i := 0; i < len(nb); i++ {
			if i > 0 && nb[i] == nb[i-1] {
				continue
			}
			g.adj[w] = nb[i]
			w++
		}
		newOff[v] = start
	}
	newOff[n] = w
	g.adj = g.adj[:w]
	// newOff currently holds starts; shift into the usual off layout.
	g.off = append(newOff[:0:0], newOff...)
}

// Clone returns a deep copy of g (including any category partition).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		off: append([]int64(nil), g.off...),
		adj: append([]int32(nil), g.adj...),
	}
	if g.cat != nil {
		c.cat = append([]int32(nil), g.cat...)
		c.catNames = append([]string(nil), g.catNames...)
		c.catSize = append([]int64(nil), g.catSize...)
		c.catVol = append([]int64(nil), g.catVol...)
	}
	return c
}
