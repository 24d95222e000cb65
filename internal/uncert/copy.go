package uncert

import "fmt"

// PairCount returns the number of category pairs holding replicate vectors
// (zeroed vectors kept alive by Reset included). Callers use it to size a
// shell via ReservePairs before a CopyFrom.
func (rs *Replicates) PairCount() int { return len(rs.pairs) }

// ReservePairs pre-allocates backing storage for n future pair vectors in
// one arena, so the next n vectors handed out (by CopyFrom, or by ingest
// touching fresh pairs) are carved from it instead of hitting the heap
// individually. Existing vectors are untouched. Reserving on a shell built
// outside a lock is what keeps the locked half of a two-phase export
// allocation-free.
func (rs *Replicates) ReservePairs(n int) {
	if n <= 0 {
		return
	}
	rs.arena = make([]float64, n*rs.cfg.B)
}

// newPairVec returns a fresh zeroed B-vector, carving it from the reserve
// arena when one is available.
func (rs *Replicates) newPairVec() []float64 {
	B := rs.cfg.B
	if len(rs.arena) >= B {
		v := rs.arena[:B:B]
		rs.arena = rs.arena[B:]
		return v
	}
	return make([]float64, B)
}

// CopyFrom overwrites rs with a deep copy of src. Both must share the
// configuration, partition and scenario (a fresh NewReplicates with src's
// parameters always does). Every scalar vector and K×B grid is copied flat
// with the copy builtin — no dirty-walking, no per-entry adds — so the call
// is memcpy-bound; pair vectors reuse rs's existing allocations and the
// ReservePairs arena, falling back to the heap only when src grew more pairs
// than were reserved. This is the hold-the-lock half of the accumulators'
// two-phase Export (Clone allocates and zeroes everything first and then
// Merges entry by entry, all of which a publish mutex would have to wait
// out).
//
// Pairs present in rs but absent from src are zeroed, not deleted: a zero
// vector and an absent pair estimate identically (see Reset).
func (rs *Replicates) CopyFrom(src *Replicates) error {
	if rs.cfg != src.cfg || rs.k != src.k || rs.star != src.star {
		return fmt.Errorf("uncert: cannot copy replicates with config %+v (K=%d, star=%v) into %+v (K=%d, star=%v)",
			src.cfg, src.k, src.star, rs.cfg, rs.k, rs.star)
	}
	copy(rs.draws, src.draws)
	copy(rs.totalRew, src.totalRew)
	copy(rs.rewSq, src.rewSq)
	copy(rs.psi1, src.psi1)
	copy(rs.psiInv, src.psiInv)
	copy(rs.coll, src.coll)
	copy(rs.rew, src.rew)
	copy(rs.drawsA, src.drawsA)
	copy(rs.rew2, src.rew2)
	copy(rs.rewSqA, src.rewSqA)
	copy(rs.withinNum, src.withinNum)
	if rs.star {
		copy(rs.degNum, src.degNum)
		copy(rs.degNumA, src.degNumA)
		copy(rs.nbrNum, src.nbrNum)
	}
	copy(rs.dirty, src.dirty)
	rs.dirtyCats = append(rs.dirtyCats[:0], src.dirtyCats...)
	rs.resetPairs()
	for _, p := range src.pairs {
		copy(rs.pairVec(p.key[0], p.key[1]), p.num)
	}
	// The one-node weight row is keyed on rs's own ingest history; a copied
	// state starts it cold.
	rs.wValid = false
	return nil
}
