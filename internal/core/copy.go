package core

import "fmt"

// CopyFrom overwrites s with a deep copy of src. s must cover the same
// partition and scenario as src (a fresh NewSums(src.K, src.Star) always
// does). Unlike Merge — which walks the source entry by entry and adds —
// every flat section is copied with the copy builtin, so the call is
// memcpy-bound: it is the hold-the-lock half of the accumulators' two-phase
// Export, where the destination was allocated outside the lock and the
// critical section only has to move bytes.
func (s *Sums) CopyFrom(src *Sums) error {
	if s.K != src.K || s.Star != src.Star {
		return fmt.Errorf("core: cannot copy sums over %d categories (star=%v) into %d (star=%v)", src.K, src.Star, s.K, s.Star)
	}
	s.Draws = src.Draws
	s.TotalRew = src.TotalRew
	s.RewSq = src.RewSq
	s.DegNum = src.DegNum
	copy(s.Rew, src.Rew)
	copy(s.DrawsA, src.DrawsA)
	copy(s.Rew2, src.Rew2)
	copy(s.RewSqA, src.RewSqA)
	copy(s.WithinNum, src.WithinNum)
	if s.Star {
		copy(s.DegNumA, src.DegNumA)
		copy(s.NbrNum, src.NbrNum)
	}
	s.PairNum.CopyFrom(src.PairNum)
	return nil
}

// CopyFrom overwrites p with the pairs of o. The scalar pair table is the
// cheap part of a sums copy (at most K(K−1)/2 entries, no replicate factor):
// both flat slices are copied slot for slot, reusing p's storage when it is
// large enough.
func (p *PairWeights) CopyFrom(o *PairWeights) {
	if cap(p.keys) < len(o.keys) {
		p.keys = make([]uint64, len(o.keys))
		p.vals = make([]float64, len(o.keys))
	}
	p.keys = p.keys[:len(o.keys)]
	p.vals = p.vals[:len(o.keys)]
	copy(p.keys, o.keys)
	copy(p.vals, o.vals)
	p.n, p.shift, p.K = o.n, o.shift, o.K
}
