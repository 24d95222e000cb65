package sample

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// NodeObservation is the unit of the incremental observation API: everything
// one draw of one node reveals under a measurement scenario. A stream of
// NodeObservations is what a real OSN crawler produces — nodes arrive one at
// a time, and the estimate should advance with each of them.
//
// The zero Weight means 1 (a uniform design) on a node's first draw and
// "inherit the node's recorded weight" on re-draws, so weighted crawlers
// may send the weight only once per node. Cat is graph.None (-1) for an
// uncategorized node. Under star sampling the first observation of a node
// carries its degree and neighbor-category counts (uncategorized neighbors
// excluded, mirroring ObserveStar); later draws of the same node may omit
// them — the consumer already knows the star. Under induced sampling, Peers
// lists the previously observed nodes adjacent to this one, i.e. the edges
// of G[S] that become visible with this draw; canonically each edge is
// reported once, by the endpoint observed second (so re-draws carry no
// Peers). The rules a consumer applies to a record — which records it
// rejects, how re-delivered star data reconciles, how duplicate edge
// reports fold — are internal/stream's record check.
//
// The JSON field names are the wire format of the cmd/topoestd daemon.
type NodeObservation struct {
	Node   int32     `json:"node"`
	Weight float64   `json:"weight,omitempty"`
	Cat    int32     `json:"cat"`
	Deg    float64   `json:"deg,omitempty"`
	NbrCat []int32   `json:"nbr_cat,omitempty"`
	NbrCnt []float64 `json:"nbr_cnt,omitempty"`
	Peers  []int32   `json:"peers,omitempty"`
}

// StreamObserver replays what a crawler obeying one measurement scenario
// learns as each draw arrives, producing NodeObservation records against a
// fully known graph. It is the streaming counterpart of ObserveInduced and
// ObserveStar, which build their observations from its records.
type StreamObserver struct {
	src  graph.Source
	star bool
	// seen is a bitset over the dense node ids [0, NumNodes).
	seen []uint64

	// Scratch for star records, reused across Observe calls: per-category
	// neighbor counts (all zero between calls) and the categories touched.
	counts []float64
	cats   []int32
}

// NewStreamObserver returns an observer for a graph backend under the given
// scenario (star = true for star sampling, false for induced subgraph
// sampling). Any graph.Source works — the observer is the piece of the
// pipeline that pays neighbor queries, so over a RateLimited source it is
// metered exactly like a real crawler.
func NewStreamObserver(src graph.Source, star bool) (*StreamObserver, error) {
	k := src.NumCategories()
	if k == 0 {
		return nil, fmt.Errorf("sample: observation requires a categorized graph")
	}
	so := &StreamObserver{src: src, star: star, seen: make([]uint64, (src.NumNodes()+63)/64)}
	if star {
		so.counts = make([]float64, k)
	}
	return so, nil
}

// K returns the number of categories of the underlying partition.
func (so *StreamObserver) K() int { return so.src.NumCategories() }

// Star reports the observer's scenario.
func (so *StreamObserver) Star() bool { return so.star }

// CheckSample validates a sample against the observer's graph: every draw
// names a node in [0, N), Weights is nil or one per draw, and every weight
// is finite and non-negative (0 means 1). Observe takes a node id on trust,
// so a sample read from a file or built by a caller goes through this check
// first, and a bad draw is an error naming it rather than an index panic.
func (so *StreamObserver) CheckSample(s *Sample) error {
	n := so.src.NumNodes()
	if s.Weights != nil && len(s.Weights) != len(s.Nodes) {
		return fmt.Errorf("sample: %d weights for %d draws", len(s.Weights), len(s.Nodes))
	}
	for i, v := range s.Nodes {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("sample: draw %d names node %d outside [0,%d)", i, v, n)
		}
		if w := s.Weight(i); !(w >= 0) || math.IsInf(w, 0) {
			return fmt.Errorf("sample: draw %d (node %d) has invalid sampling weight %g (0 means 1; negative, NaN and infinite are rejected)", i, v, w)
		}
	}
	return nil
}

// seenNode reports whether node v has been observed.
func (so *StreamObserver) seenNode(v int32) bool { return so.seen[v>>6]&(1<<(v&63)) != 0 }

// Observe reveals what drawing node v with sampling weight weight shows
// under the observer's scenario. Star records carry degree and neighbor
// categories on the node's first observation (ascending, nil when no
// neighbor is categorized); induced records list the edges to previously
// observed nodes (each edge exactly once).
func (so *StreamObserver) Observe(v int32, weight float64) NodeObservation {
	rec := NodeObservation{Node: v, Weight: weight, Cat: so.src.Category(v)}
	if so.seenNode(v) {
		return rec
	}
	so.seen[v>>6] |= 1 << (v & 63)
	if so.star {
		rec.Deg = float64(so.src.Degree(v))
		cats := so.cats[:0]
		for _, u := range so.src.Neighbors(v) {
			if c := so.src.Category(u); c != graph.None {
				if so.counts[c] == 0 {
					cats = append(cats, c)
				}
				so.counts[c]++
			}
		}
		if len(cats) > 0 {
			slices.Sort(cats)
			rec.NbrCat = make([]int32, len(cats))
			rec.NbrCnt = make([]float64, len(cats))
			for j, c := range cats {
				rec.NbrCat[j], rec.NbrCnt[j] = c, so.counts[c]
				so.counts[c] = 0
			}
		}
		so.cats = cats
	} else {
		for _, u := range so.src.Neighbors(v) {
			if u != v && so.seenNode(u) {
				rec.Peers = append(rec.Peers, u)
			}
		}
	}
	return rec
}
