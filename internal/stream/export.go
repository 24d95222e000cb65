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
