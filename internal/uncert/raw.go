package uncert

import "fmt"

// RawReplicates is the flat, serialization-friendly view of a Replicates:
// every replicate vector and grid exposed as plain slices, in the exact
// structure-of-arrays layout the engine accumulates in. It is the bridge
// between the bootstrap state and the wire codec of internal/wire — the
// distributed tier ships replicate sums between processes, and because the
// Poisson weights are pure functions of (Seed, node, replicate), replicate
// vectors decoded on a coordinator Merge exactly like locally accumulated
// ones.
//
// Scalar vectors have length B; grids have length K·B with category c's row
// at [c·B : (c+1)·B]; pair vectors have length B. DegNum, DegNumA and NbrNum
// are nil unless Star.
type RawReplicates struct {
	K    int
	Star bool
	Cfg  Config

	// Per-replicate scalar statistics, index [b].
	Draws, TotalRew, RewSq []float64
	Psi1, PsiInv, Coll     []float64
	DegNum                 []float64 // star only

	// Per-category grids, category c's replicate row at [c*B : (c+1)*B].
	Rew, DrawsA, Rew2, RewSqA, WithinNum []float64
	DegNumA, NbrNum                      []float64 // star only

	// Pairs maps a canonical category pair (a < b) to its B replicate
	// numerators.
	Pairs map[[2]int32][]float64
}

// Raw returns the flat view of the replicate state. The returned slices
// ALIAS the live state (the Pairs map is built per call) — the view is
// read-only and valid only while the Replicates is not mutated; callers
// needing a stable cut should copy first (CopyFrom, or Merge into a fresh
// instance).
func (rs *Replicates) Raw() *RawReplicates {
	pairs := make(map[[2]int32][]float64, len(rs.pairs))
	for _, p := range rs.pairs {
		pairs[p.key] = p.num
	}
	return &RawReplicates{
		K:         rs.k,
		Star:      rs.star,
		Cfg:       rs.cfg,
		Draws:     rs.draws,
		TotalRew:  rs.totalRew,
		RewSq:     rs.rewSq,
		Psi1:      rs.psi1,
		PsiInv:    rs.psiInv,
		Coll:      rs.coll,
		DegNum:    rs.degNum,
		Rew:       rs.rew,
		DrawsA:    rs.drawsA,
		Rew2:      rs.rew2,
		RewSqA:    rs.rewSqA,
		WithinNum: rs.withinNum,
		DegNumA:   rs.degNumA,
		NbrNum:    rs.nbrNum,
		Pairs:     pairs,
	}
}

// NewReplicatesFromRaw builds a Replicates from a flat view, copying every
// vector — the decode half of the wire codec. The raw state must be
// internally consistent: scalar vectors of length B, grids of length K·B
// (star grids present exactly when Star), and pair vectors of length B under
// canonical keys (0 ≤ a < b < K).
func NewReplicatesFromRaw(r *RawReplicates) (*Replicates, error) {
	rs, err := NewReplicates(r.K, r.Star, r.Cfg)
	if err != nil {
		return nil, err
	}
	B := r.Cfg.B
	type vec struct {
		name string
		dst  []float64
		src  []float64
	}
	scalars := []vec{
		{"draws", rs.draws, r.Draws},
		{"total_rew", rs.totalRew, r.TotalRew},
		{"rew_sq", rs.rewSq, r.RewSq},
		{"psi1", rs.psi1, r.Psi1},
		{"psi_inv", rs.psiInv, r.PsiInv},
		{"coll", rs.coll, r.Coll},
	}
	grids := []vec{
		{"rew", rs.rew, r.Rew},
		{"draws_a", rs.drawsA, r.DrawsA},
		{"rew2", rs.rew2, r.Rew2},
		{"rew_sq_a", rs.rewSqA, r.RewSqA},
		{"within_num", rs.withinNum, r.WithinNum},
	}
	if r.Star {
		scalars = append(scalars, vec{"deg_num", rs.degNum, r.DegNum})
		grids = append(grids,
			vec{"deg_num_a", rs.degNumA, r.DegNumA},
			vec{"nbr_num", rs.nbrNum, r.NbrNum})
	}
	for _, v := range scalars {
		if len(v.src) != B {
			return nil, fmt.Errorf("uncert: raw replicate vector %s has length %d, want B=%d", v.name, len(v.src), B)
		}
		copy(v.dst, v.src)
	}
	for _, g := range grids {
		if len(g.src) != r.K*B {
			return nil, fmt.Errorf("uncert: raw replicate grid %s has length %d, want K·B=%d", g.name, len(g.src), r.K*B)
		}
		copy(g.dst, g.src)
	}
	for key, v := range r.Pairs {
		if !(key[0] >= 0 && key[0] < key[1] && int(key[1]) < r.K) {
			return nil, fmt.Errorf("uncert: raw replicate pair {%d,%d} is not canonical for K=%d", key[0], key[1], r.K)
		}
		if len(v) != B {
			return nil, fmt.Errorf("uncert: raw replicate pair {%d,%d} has %d replicates, want B=%d", key[0], key[1], len(v), B)
		}
		copy(rs.pairVec(key[0], key[1]), v)
	}
	// Every category row may hold data now; dirty-tracking restarts from
	// "all touched" so Merge and Reset stay correct.
	rs.markAll()
	return rs, nil
}
