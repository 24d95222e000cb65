package sample

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
)

// NodeObservation is the unit of the incremental observation API: everything
// one draw of one node reveals under a measurement scenario. A stream of
// NodeObservations is what a real OSN crawler produces — nodes arrive one at
// a time, and the estimate should advance with each of them.
//
// The zero Weight means 1 (a uniform design) on a node's first draw and
// "inherit the node's recorded weight" on re-draws, so weighted crawlers
// may send the weight only once per node; negative and NaN weights, and
// re-draws whose explicit weight or category contradict the node's first
// observation, are rejected. Cat is graph.None (-1) for an uncategorized
// node. Under star sampling the first observation of a node
// carries its degree and neighbor-category counts (uncategorized neighbors
// excluded, mirroring ObserveStar); later draws of the same node may omit
// them — the consumer already knows the star. Under induced sampling, Peers
// lists the previously observed nodes adjacent to this one, i.e. the edges
// of G[S] that become visible with this draw; canonically each edge is
// reported once, by the endpoint observed second (so re-draws carry no
// Peers), but consumers fold duplicate reports of an edge into one.
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

// EffectiveStarDegree returns the node degree a star record implies: the
// explicit degree when given, else the sum of the reported neighbor counts
// (tolerating clients that only report counts; uncategorized neighbors are
// then invisible, as in a crawl of a partially labeled network).
func EffectiveStarDegree(deg float64, nbrCnt []float64) float64 {
	if deg != 0 {
		return deg
	}
	var s float64
	for _, c := range nbrCnt {
		s += c
	}
	return s
}

// CanonicalStarCounts returns neighbor-category counts in canonical form:
// sorted by category, duplicate categories aggregated, zero counts dropped.
// Wire records may list categories in any order and may or may not
// enumerate zero-count categories (e.g. a client building the list from map
// iteration), so everything stored or compared goes through this first —
// equality of canonical forms is then exactly semantic equality. The inputs
// are never modified; already-canonical slices are returned as-is.
func CanonicalStarCounts(nbrCat []int32, nbrCnt []float64) ([]int32, []float64) {
	canonical := true
	for j := range nbrCat {
		if nbrCnt[j] == 0 || (j > 0 && nbrCat[j] <= nbrCat[j-1]) {
			canonical = false
			break
		}
	}
	if canonical {
		return nbrCat, nbrCnt
	}
	ord := make([]int, len(nbrCat))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return nbrCat[ord[a]] < nbrCat[ord[b]] })
	outCat := make([]int32, 0, len(nbrCat))
	outCnt := make([]float64, 0, len(nbrCnt))
	for _, i := range ord {
		if n := len(outCat); n > 0 && outCat[n-1] == nbrCat[i] {
			outCnt[n-1] += nbrCnt[i]
		} else {
			outCat = append(outCat, nbrCat[i])
			outCnt = append(outCnt, nbrCnt[i])
		}
	}
	w := 0
	for i := range outCat {
		if outCnt[i] != 0 {
			outCat[w], outCnt[w] = outCat[i], outCnt[i]
			w++
		}
	}
	return outCat[:w], outCnt[:w]
}

// ValidateStarFields checks a record's star fields against a K-category
// partition: matching array lengths, a finite non-negative degree, finite
// non-negative counts over in-range categories, and an explicit degree not
// below the counts sum (counts cover only categorized neighbors, so a
// smaller degree is impossible on any graph). Errors carry no package
// prefix — callers wrap them.
func ValidateStarFields(k int, rec NodeObservation) error {
	if len(rec.NbrCat) != len(rec.NbrCnt) {
		return fmt.Errorf("node %d has %d neighbor categories but %d counts", rec.Node, len(rec.NbrCat), len(rec.NbrCnt))
	}
	if !(rec.Deg >= 0) || math.IsInf(rec.Deg, 0) {
		return fmt.Errorf("node %d has invalid degree %g", rec.Node, rec.Deg)
	}
	var sum float64
	for j, c := range rec.NbrCat {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("node %d has neighbor category %d outside [0,%d)", rec.Node, c, k)
		}
		if !(rec.NbrCnt[j] >= 0) || math.IsInf(rec.NbrCnt[j], 0) {
			return fmt.Errorf("node %d has invalid neighbor count %g for category %d", rec.Node, rec.NbrCnt[j], c)
		}
		sum += rec.NbrCnt[j]
	}
	if rec.Deg > 0 && sum > rec.Deg {
		return fmt.Errorf("node %d reports degree %g below its categorized-neighbor count sum %g", rec.Node, rec.Deg, sum)
	}
	return nil
}

// ReconcileStarData compares star data re-delivered for one node against
// the recorded constants, comparing only what each side attests: the
// neighbor-category counts when present, the degree when explicit. On a
// static graph these are per-node constants, so a genuine mismatch means
// corrupt or misrouted data and yields an error; the single definition
// here serves the streaming accumulator, Observation.Append, and
// MergeObservations alike. Partial observations upgrade symmetrically: a
// counts-derived degree (see EffectiveStarDegree — uncategorized neighbors
// are invisible to a counts-only record) is only a lower bound that an
// explicit degree supersedes, and counts arriving for a node whose records
// carried none so far are adopted. The returned triple is the reconciled
// data to record; newCat/newCnt alias the stored slices unless counts were
// adopted (then they alias recCat/recCnt — copy before retaining).
// recCat/recCnt must be canonical (see CanonicalStarCounts) and the record
// pre-validated (see ValidateStarFields); errors carry no package prefix —
// callers wrap.
func ReconcileStarData(node int32, recDeg float64, recCat []int32, recCnt []float64, deg float64, nbrCat []int32, nbrCnt []float64) (newDeg float64, newCat []int32, newCnt []float64, err error) {
	newCat, newCnt = nbrCat, nbrCnt
	switch {
	case len(recCat) == 0:
		// The record attests no counts.
	case len(nbrCat) == 0:
		// Counts arrive for a node recorded without any — adopt them
		// (consistency with the reconciled degree is checked below).
		newCat, newCnt = recCat, recCnt
	case len(recCat) != len(nbrCat):
		return 0, nil, nil, fmt.Errorf("node %d re-delivered %d neighbor categories, conflicting with its first observation (%d categories)",
			node, len(recCat), len(nbrCat))
	default:
		for j := range recCat {
			if recCat[j] != nbrCat[j] || recCnt[j] != nbrCnt[j] {
				return 0, nil, nil, fmt.Errorf("node %d re-delivered neighbor-category counts conflicting with its first observation", node)
			}
		}
	}
	newDeg = deg
	switch {
	case recDeg == 0 || recDeg == deg:
	case recDeg > deg && deg == EffectiveStarDegree(0, nbrCnt):
		// The stored degree equals its counts sum, which is
		// indistinguishable from a counts-derived lower bound (the wire
		// format carries no explicit-degree marker), so the record's larger
		// explicit degree supersedes it — the information-maximizing
		// resolution of an inherent ambiguity.
		newDeg = recDeg
	case recDeg < deg && len(recCnt) > 0 && recDeg == EffectiveStarDegree(0, recCnt):
		// The record's degree is itself a counts-derived lower bound.
	default:
		return 0, nil, nil, fmt.Errorf("node %d re-delivered star data (deg %g) conflicting with its first observation (deg %g)", node, recDeg, deg)
	}
	if len(nbrCat) == 0 && len(newCat) > 0 && EffectiveStarDegree(0, newCnt) > newDeg {
		return 0, nil, nil, fmt.Errorf("node %d re-delivered neighbor counts summing to %g, exceeding its recorded degree %g",
			node, EffectiveStarDegree(0, newCnt), newDeg)
	}
	return newDeg, newCat, newCnt, nil
}

// StreamObserver replays what a crawler obeying one measurement scenario
// learns as each draw arrives, producing NodeObservation records against a
// fully known graph. It is the streaming counterpart of ObserveInduced and
// ObserveStar — and since those batch functions are implemented as
// Observe+Append loops, the two paths agree by construction.
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

// NewObservation returns an empty batch observation matching the observer's
// partition and scenario, ready for Append.
func (so *StreamObserver) NewObservation() *Observation {
	return &Observation{K: so.src.NumCategories(), Star: so.star}
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

// reconcileStar folds star data carried by a record (canonical counts,
// fields already validated) into distinct node j: recording it outright
// when the node has none yet — stored deg 0 with no counts means only bare
// records were seen, the batch analogue of the accumulator's starSeen flag
// — upgrading partial data, and rejecting contradictions. The single
// dispatch here serves Observation.Append and MergeObservations alike.
func (o *Observation) reconcileStar(j int32, deg float64, cat []int32, cnt []float64) error {
	lo, hi := o.NbrOff[j], o.NbrOff[j+1]
	if o.Deg[j] == 0 && hi == lo {
		o.backfillStar(j, deg, cat, cnt)
		return nil
	}
	newDeg, newCat, newCnt, err := ReconcileStarData(o.Nodes[j], deg, cat, cnt,
		o.Deg[j], o.NbrCat[lo:hi], o.NbrCnt[lo:hi])
	if err != nil {
		return err
	}
	if int32(len(newCat)) != hi-lo {
		o.backfillStar(j, newDeg, newCat, newCnt)
	} else {
		o.Deg[j] = newDeg
	}
	return nil
}

// backfillStar records star data that arrived only on a later draw of
// distinct node j (its earlier records carried none): the canonical counts
// are inserted into the CSR at the node's slot and every later offset
// shifts. The batch estimators recompute from the stored arrays, so storing
// the data is all the backfill the batch path needs — the incremental
// accumulator additionally replays the star mass of the earlier draws.
// The insertion is O(stored counts after the slot), a deliberate trade of
// worst-case cost for a simple CSR with no side structures: late star data
// is the exception in batch replays, and high-throughput concurrent-crawler
// feeds belong on the streaming accumulator, whose backfill is O(1).
func (o *Observation) backfillStar(j int32, deg float64, nbrCat []int32, nbrCnt []float64) {
	lo := o.NbrOff[j]
	n := int32(len(nbrCat))
	o.Deg[j] = EffectiveStarDegree(deg, nbrCnt)
	o.NbrCat = append(o.NbrCat[:lo:lo], append(append([]int32(nil), nbrCat...), o.NbrCat[lo:]...)...)
	o.NbrCnt = append(o.NbrCnt[:lo:lo], append(append([]float64(nil), nbrCnt...), o.NbrCnt[lo:]...)...)
	for k := int(j) + 1; k < len(o.NbrOff); k++ {
		o.NbrOff[k] += n
	}
}

// Append folds one more draw into the observation, maintaining the exact
// invariants the batch Observe functions establish: draws of one node
// aggregate into a multiplicity against the weight of its first draw (a
// re-draw whose category or weight contradicts the first is rejected), star
// neighbor data is recorded once per distinct node, and induced edges are
// stored as deduplicated distinct-node index pairs (i, j) with i < j. Peers
// must already have been observed; an invalid record is rejected without
// modifying the observation.
func (o *Observation) Append(rec NodeObservation) error {
	// Validate the whole record before mutating anything, so a rejected
	// record leaves the observation exactly as it was.
	if rec.Cat != graph.None && (rec.Cat < 0 || int(rec.Cat) >= o.K) {
		return fmt.Errorf("sample: node %d has category %d outside [0,%d)", rec.Node, rec.Cat, o.K)
	}
	// Only weight 0 means "unspecified, i.e. 1"; negative, NaN, or infinite
	// weights would silently corrupt every Hansen–Hurwitz sum the node
	// touches.
	if math.IsNaN(rec.Weight) || math.IsInf(rec.Weight, 0) || rec.Weight < 0 {
		return fmt.Errorf("sample: node %d has invalid sampling weight %g (0 means 1; negative, NaN and infinite are rejected)", rec.Node, rec.Weight)
	}
	// Records carrying fields of the other scenario signal a mismatched
	// stream — reject loudly (as the streaming accumulator does) rather
	// than silently drop the data and skew the estimate.
	if !o.Star && (len(rec.NbrCat) > 0 || len(rec.NbrCnt) > 0 || rec.Deg != 0) {
		return fmt.Errorf("sample: node %d carries star fields (deg/nbr_cat) but the observation is induced", rec.Node)
	}
	if o.Star {
		if len(rec.Peers) > 0 {
			return fmt.Errorf("sample: node %d carries induced peers but the observation is star", rec.Node)
		}
		if err := ValidateStarFields(o.K, rec); err != nil {
			return fmt.Errorf("sample: %w", err)
		}
	}
	if o.idx == nil {
		o.idx = make(map[int32]int32, len(o.Nodes))
		for i, v := range o.Nodes {
			o.idx[v] = int32(i)
		}
	}
	if !o.Star {
		for _, p := range rec.Peers {
			if _, ok := o.idx[p]; !ok && p != rec.Node {
				return fmt.Errorf("sample: peer %d of node %d not yet observed", p, rec.Node)
			}
		}
	}
	w := rec.Weight
	if w == 0 {
		w = 1
	}
	j, ok := o.idx[rec.Node]
	if ok {
		// A node's category and sampling weight are per-node constants of
		// the design; a re-draw contradicting the first observation means a
		// corrupt stream, mirroring the streaming accumulator's rejection.
		// An omitted weight (0) on a re-draw inherits the recorded one.
		if rec.Cat != o.Cat[j] {
			return fmt.Errorf("sample: node %d re-drawn with category %d, conflicting with its first observation (category %d)", rec.Node, rec.Cat, o.Cat[j])
		}
		if rec.Weight != 0 && w != o.Weight[j] {
			return fmt.Errorf("sample: node %d re-drawn with sampling weight %g, conflicting with its first observation (weight %g)", rec.Node, w, o.Weight[j])
		}
		// Star info for an already-known node must reconcile with the
		// recorded constants: consistent re-deliveries pass, partial ones
		// (late star data, late counts, or the explicit degree for a
		// counts-derived lower bound) upgrade the record — mirroring the
		// streaming accumulator — and contradictions are rejected.
		if o.Star && (len(rec.NbrCat) > 0 || rec.Deg != 0) {
			cat, cnt := CanonicalStarCounts(rec.NbrCat, rec.NbrCnt)
			if err := o.reconcileStar(j, rec.Deg, cat, cnt); err != nil {
				return fmt.Errorf("sample: %w", err)
			}
		}
	} else {
		j = int32(len(o.Nodes))
		o.idx[rec.Node] = j
		o.Nodes = append(o.Nodes, rec.Node)
		o.Mult = append(o.Mult, 0)
		o.Weight = append(o.Weight, w)
		o.Cat = append(o.Cat, rec.Cat)
		if o.Star {
			if o.NbrOff == nil {
				o.NbrOff = []int32{0}
			}
			// Store the canonical counts and the effective degree, matching
			// the streaming accumulator's normalization of wire records.
			cat, cnt := CanonicalStarCounts(rec.NbrCat, rec.NbrCnt)
			o.Deg = append(o.Deg, EffectiveStarDegree(rec.Deg, cnt))
			o.NbrCat = append(o.NbrCat, cat...)
			o.NbrCnt = append(o.NbrCnt, cnt...)
			o.NbrOff = append(o.NbrOff, int32(len(o.NbrCat)))
		}
	}
	o.Mult[j]++
	o.Draws++
	if !o.Star {
		for _, p := range rec.Peers {
			pi := o.idx[p]
			if pi == j {
				continue
			}
			a, b := pi, j
			if a > b {
				a, b = b, a
			}
			// Duplicate reports of one edge (both endpoints listing each
			// other, or a repeated Peers entry) fold into a single edge,
			// matching the streaming accumulator's semantics.
			if o.edges == nil {
				o.edges = make(map[[2]int32]bool, len(o.Edges))
				for _, e := range o.Edges {
					o.edges[e] = true
				}
			}
			if o.edges[[2]int32{a, b}] {
				continue
			}
			o.edges[[2]int32{a, b}] = true
			o.Edges = append(o.Edges, [2]int32{a, b})
		}
	}
	return nil
}
