package stream

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/sample"
)

// NodeRecord is one entry of an accumulator's node directory in
// serialization-friendly form: the per-node constants (category, sampling
// weight), the draw multiplicity, and the scenario payload (reconciled star
// data, or the induced peer list). Together with a State it is everything an
// accumulator needs to RESUME a stream, not merely to estimate from it: a
// restore without the directory would treat a re-drawn node as fresh,
// undercounting collisions and double-counting star mass.
type NodeRecord struct {
	Node   int32
	Cat    int32
	Mult   float64
	Weight float64

	// Star scenario.
	StarSeen bool
	Deg      float64
	NbrCat   []int32
	NbrCnt   []float64

	// Induced scenario: distinct observed peers. Every edge of G[S] appears
	// in both endpoints' lists.
	Peers []int32
}

// FullState is the complete resumable state of an accumulator: the State cut
// (sums, collision scalars, bootstrap replicates, generation) plus the node
// directory at the same cut. It is the payload of the durable checkpoint
// frames of internal/wire — restore via RestoreAccumulator or
// RestoreEpochAccumulator and the accumulator continues exactly where the
// exported one stood: identical estimates, identical re-draw validation,
// identical collision accounting, to ≤ 1e-9 of an uninterrupted run (the
// package tests pin bit-equality).
//
// Nodes is sorted by node id — the canonical order that makes
// checkpoint → restore → checkpoint byte-stable.
type FullState struct {
	State *State
	Nodes []NodeRecord
}

// FullExporter is the optional Ingester extension implemented by the live
// accumulators (not by the read-only Pool, which is rebuilt from worker
// exports each round and has nothing durable of its own): ExportFull returns
// the complete resumable state behind durable checkpointing.
type FullExporter interface {
	Ingester
	ExportFull() (*FullState, error)
}

// ExportFull returns the accumulator's complete resumable state: the State
// cut plus the node directory, all describing the same set of applied
// records (one critical section). It is the periodic-checkpoint path — the
// node copies happen under the lock, which Export deliberately avoids; use
// Export when only the mergeable statistics are needed.
func (a *Accumulator) ExportFull() (*FullState, error) {
	var nodes []NodeRecord
	st, err := a.export(func(st *State) {
		a.cutLocked(st)
		nodes = make([]NodeRecord, a.dir.len())
		for i := range nodes {
			ns := a.dir.at(int32(i))
			nr := &nodes[i]
			nr.Node, nr.Cat, nr.Mult, nr.Weight = ns.id, ns.cat, ns.mult, ns.weight
			nr.setStar(ns.star)
			for _, p := range ns.peers {
				nr.Peers = append(nr.Peers, a.dir.at(p).id)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sortNodeRecords(nodes)
	return &FullState{State: st, Nodes: nodes}, nil
}

// ExportFull returns the epoch-merged accumulator's complete resumable
// state. Consistency needs more than the publish mutex here: a flush
// reserves draw intervals in the directory (its reserve phase) before
// merging the epoch's sums (its publish phase), so between the phases the
// directory runs ahead of the published view. ExportFull therefore takes
// the accumulator's flush gate exclusively — flushes hold it shared from
// reserve through publish — so the cut sees no flush mid-flight and the
// directory, sums, replicates and generation all agree. Records in
// unflushed Locals are not exported (the flush-visibility contract); ingest
// into Locals is never blocked, only flushes wait out the copy.
func (ea *EpochAccumulator) ExportFull() (*FullState, error) {
	ea.flushGate.Lock()
	defer ea.flushGate.Unlock()
	st, err := ea.Export()
	if err != nil {
		return nil, err
	}
	nodes := make([]NodeRecord, 0, ea.dir.len())
	ea.dir.each(func(id int32, e dirEntry) {
		sh := ea.dir.at(e.idx)
		nr := NodeRecord{Node: id, Cat: e.cat, Mult: sh.mult, Weight: e.weight}
		nr.setStar(sh.star)
		nodes = append(nodes, nr)
	})
	sortNodeRecords(nodes)
	return &FullState{State: st, Nodes: nodes}, nil
}

// setStar copies star data sd (nil when none arrived) into the record.
func (nr *NodeRecord) setStar(sd *starData) {
	if sd != nil {
		nr.StarSeen, nr.Deg = sd.seen, sd.deg
		nr.NbrCat = append([]int32(nil), sd.nbrCat...)
		nr.NbrCnt = append([]float64(nil), sd.nbrCnt...)
	}
}

// star returns the record's star data as the accumulators store it: nil
// when none arrived.
func (nr *NodeRecord) star() *starData {
	if !nr.StarSeen {
		return nil
	}
	return &starData{seen: true, deg: nr.Deg,
		nbrCat: append([]int32(nil), nr.NbrCat...),
		nbrCnt: append([]float64(nil), nr.NbrCnt...)}
}

func sortNodeRecords(nodes []NodeRecord) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
}

// validateFull checks a FullState against the configuration it is being
// restored under: identity parameters (partition, scenario, bootstrap
// configuration) must match — estimation-time options (N, size method) are
// free to differ, they are not part of the state.
func validateFull(cfg Config, fs *FullState) error {
	if fs == nil || fs.State == nil || fs.State.Sums == nil {
		return fmt.Errorf("stream: restore: nil state")
	}
	st := fs.State
	if st.K != cfg.K {
		return fmt.Errorf("stream: restore: state covers %d categories, config has %d", st.K, cfg.K)
	}
	if st.Star != cfg.Star {
		return fmt.Errorf("stream: restore: state has star=%v, config has star=%v", st.Star, cfg.Star)
	}
	switch {
	case cfg.Replicates.Enabled() && st.Reps == nil:
		return fmt.Errorf("stream: restore: config wants %d bootstrap replicates but the state carries none", cfg.Replicates.B)
	case cfg.Replicates.Enabled() && st.Reps.Config() != cfg.Replicates:
		return fmt.Errorf("stream: restore: state bootstrap config %+v conflicts with %+v", st.Reps.Config(), cfg.Replicates)
	case !cfg.Replicates.Enabled() && st.Reps != nil:
		return fmt.Errorf("stream: restore: state carries bootstrap replicates but the config runs without them")
	}
	if int64(len(fs.Nodes)) != st.Distinct {
		return fmt.Errorf("stream: restore: %d node records but the state reports %d distinct nodes", len(fs.Nodes), st.Distinct)
	}
	for i := range fs.Nodes {
		nr := &fs.Nodes[i]
		if nr.Cat != graph.None && (nr.Cat < 0 || int(nr.Cat) >= cfg.K) {
			return fmt.Errorf("stream: restore: node %d has category %d outside [0,%d)", nr.Node, nr.Cat, cfg.K)
		}
		if nr.Mult < 1 || math.IsNaN(nr.Mult) || math.IsInf(nr.Mult, 0) {
			return fmt.Errorf("stream: restore: node %d has multiplicity %g", nr.Node, nr.Mult)
		}
		if nr.Weight <= 0 || math.IsNaN(nr.Weight) || math.IsInf(nr.Weight, 0) {
			return fmt.Errorf("stream: restore: node %d has sampling weight %g", nr.Node, nr.Weight)
		}
		if !cfg.Star {
			if nr.StarSeen || nr.Deg != 0 || len(nr.NbrCat) > 0 || len(nr.NbrCnt) > 0 {
				return fmt.Errorf("stream: restore: node %d carries star data under the induced scenario", nr.Node)
			}
			continue
		}
		if len(nr.Peers) > 0 {
			return fmt.Errorf("stream: restore: node %d carries induced peers under the star scenario", nr.Node)
		}
		if err := validateStarRecord(cfg.K, nr); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
	}
	return nil
}

// validateStarRecord checks a node's stored star data: the fields a star
// record must satisfy, in the canonical form the accumulators store
// (categories ascending without repeats, no zero counts), and present only
// if the node is marked as having received star data.
func validateStarRecord(k int, nr *NodeRecord) error {
	if err := validateStarFields(k, sample.NodeObservation{Node: nr.Node, Deg: nr.Deg, NbrCat: nr.NbrCat, NbrCnt: nr.NbrCnt}); err != nil {
		return err
	}
	for j, c := range nr.NbrCat {
		if nr.NbrCnt[j] == 0 || (j > 0 && c <= nr.NbrCat[j-1]) {
			return fmt.Errorf("node %d has neighbor counts out of canonical form", nr.Node)
		}
	}
	if !nr.StarSeen && (nr.Deg != 0 || len(nr.NbrCat) > 0) {
		return fmt.Errorf("node %d has star data but is not marked as star-seen", nr.Node)
	}
	return nil
}

// RestoreAccumulator builds a single-lock accumulator that resumes exactly
// where the exported one stood: sums, collision scalars, replicates,
// generation and the node directory are all adopted from fs. cfg supplies
// the estimation-time options (N, size method); its identity parameters
// must match the state. The convergence baseline restarts empty — the first
// snapshot after a restore reports +Inf deltas, like a fresh accumulator.
func RestoreAccumulator(cfg Config, fs *FullState) (*Accumulator, error) {
	if err := validateFull(cfg, fs); err != nil {
		return nil, err
	}
	a, err := NewAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	if err := a.restore(fs.State); err != nil {
		return nil, err
	}
	for i := range fs.Nodes {
		nr := &fs.Nodes[i]
		e, fresh := a.dir.insert(nr.Node, nr.Cat, nr.Weight)
		if !fresh {
			return nil, fmt.Errorf("stream: restore: duplicate node record %d", nr.Node)
		}
		ns := a.dir.at(e.idx)
		ns.mult, ns.weight, ns.cat, ns.id, ns.star = nr.Mult, nr.Weight, nr.Cat, nr.Node, nr.star()
	}
	if err := a.restorePeers(fs.Nodes); err != nil {
		return nil, err
	}
	a.gen.Store(fs.State.Gen)
	return a, nil
}

// restorePeers translates the records' peer ids into dense indices and
// checks that the lists form a simple undirected graph on the restored
// nodes: every peer is another restored node, listed once, that lists the
// node back. A re-draw replays its mass over these lists, so a broken one
// would corrupt the sums or reach a node that does not exist. The check
// sorts the directed edges once and looks up each one's reverse. The
// records' dense indices are their positions in nodes.
func (a *Accumulator) restorePeers(nodes []NodeRecord) error {
	var edges []uint64
	for i := range nodes {
		nr := &nodes[i]
		ns := a.dir.at(int32(i))
		for _, p := range nr.Peers {
			pe, ok := a.dir.lookup(p)
			switch {
			case !ok:
				return fmt.Errorf("stream: restore: node %d lists peer %d, which is not a restored node", nr.Node, p)
			case p == nr.Node:
				return fmt.Errorf("stream: restore: node %d lists itself as a peer", nr.Node)
			}
			ns.peers = append(ns.peers, pe.idx)
			edges = append(edges, uint64(i)<<32|uint64(pe.idx))
		}
	}
	slices.Sort(edges)
	for j, e := range edges {
		from, to := nodes[e>>32].Node, nodes[uint32(e)].Node
		if j > 0 && edges[j-1] == e {
			return fmt.Errorf("stream: restore: node %d lists peer %d twice", from, to)
		}
		if _, ok := slices.BinarySearch(edges, e<<32|e>>32); !ok {
			return fmt.Errorf("stream: restore: node %d lists peer %d, which does not list it back", from, to)
		}
	}
	return nil
}

// RestoreEpochAccumulator builds an epoch-merged accumulator that resumes
// exactly where the exported one stood (see RestoreAccumulator; the state
// may equally come from a single-lock accumulator's ExportFull — the two
// designs share the same resumable state, only the concurrency machinery
// differs). flushEvery is as in NewEpochAccumulator.
func RestoreEpochAccumulator(cfg Config, flushEvery int, fs *FullState) (*EpochAccumulator, error) {
	if err := validateFull(cfg, fs); err != nil {
		return nil, err
	}
	ea, err := NewEpochAccumulator(cfg, flushEvery)
	if err != nil {
		return nil, err
	}
	if err := ea.restore(fs.State); err != nil {
		return nil, err
	}
	for i := range fs.Nodes {
		nr := &fs.Nodes[i]
		e, fresh := ea.dir.insert(nr.Node, nr.Cat, nr.Weight)
		if !fresh {
			return nil, fmt.Errorf("stream: restore: duplicate node record %d", nr.Node)
		}
		*ea.dir.at(e.idx) = sharedNode{mult: nr.Mult, star: nr.star()}
	}
	ea.gen.Store(fs.State.Gen)
	return ea, nil
}
