package stream

import (
	"repro/internal/core"
	"repro/internal/uncert"
)

// State is a consistent cut of everything an accumulator has learned from
// its stream: the primary Hansen–Hurwitz sums, the §4.3 collision scalars,
// the bootstrap replicate sums (nil when the bootstrap is off), and the
// ingest generation identifying the cut. It is the unit of the distributed
// estimation tier — workers Export, internal/wire serializes, and a
// coordinator Pool re-merges states from many processes into the pooled
// estimate, exactly as if one accumulator had ingested every stream
// (see core.Sums.Merge for the exactness conditions; the nonlinear collision
// and Rew2 statistics pool exactly only when workers observe disjoint node
// sets, e.g. a hash partition of the id space).
//
// A State shares no mutable memory with the accumulator that produced it.
type State struct {
	// K and Star identify the partition and scenario.
	K    int
	Star bool
	// Gen is the accumulator's ingest generation at the cut: every record
	// whose ingest (or flush) completed before the Export call is included.
	Gen uint64
	// Distinct is the number of distinct nodes at (approximately) the cut.
	// For the EpochAccumulator it is informational: the distinct counter
	// advances outside the publish mutex, so it may momentarily disagree
	// with Sums by a node whose first flush is mid-flight.
	Distinct int64
	// Psi1, PsiInv and Collisions are the population-size statistics
	// (Σ m_v·w_v, Σ m_v/w_v, Σ m_v(m_v−1)/2).
	Psi1, PsiInv, Collisions float64
	// Sums holds the primary sufficient statistics.
	Sums *core.Sums
	// Reps holds the bootstrap replicate sums; nil when the accumulator
	// runs without replicates.
	Reps *uncert.Replicates
}

// Export implements Ingester: a consistent cut of the accumulator's state,
// with the (sums, collision scalars, replicates, generation) all describing
// the same set of applied records. Exporting an empty accumulator succeeds —
// the zero state merges as a no-op, which is exactly what a coordinator
// wants from a worker that has not ingested yet. The copy is two-phase, so
// concurrent ingest is stalled only for the flat byte moves (see view.export).
func (a *Accumulator) Export() (*State, error) {
	return a.export(a.cfg, a.cutLocked)
}

// cutLocked fills the generation and distinct count of a snapshot or export
// cut; the caller holds a.mu.
func (a *Accumulator) cutLocked(st *State) {
	st.Gen, st.Distinct = a.gen.Load(), int64(a.dir.len())
}

// Export implements Ingester for the epoch-merged accumulator. The cut is
// taken under the publish mutex: flushes advance the generation inside the
// same critical section that merges their sums and replicates (see
// Local.Flush's publish phase), so the exported (Sums, Reps, collision scalars, Gen)
// are mutually consistent — a flush is either fully in the cut or fully
// outside it. Records sitting in unflushed Locals are not exported, matching
// the flush-visibility contract of Snapshot. Distinct is informational (see
// State.Distinct).
func (ea *EpochAccumulator) Export() (*State, error) {
	return ea.export(ea.cfg, ea.cutLocked)
}

// cutLocked fills the generation and distinct count of a snapshot or export
// cut; the caller holds ea.mu.
func (ea *EpochAccumulator) cutLocked(st *State) {
	st.Gen, st.Distinct = ea.gen.Load(), int64(ea.dir.len())
}
