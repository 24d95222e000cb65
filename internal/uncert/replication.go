package uncert

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Replication is the between-walk variance summary of a pooled multi-walk
// estimate: intervals are centered on the estimate from the merged sums
// (the paper's Table 2 pooling) with half-widths t_{1−α/2, m_eff−1}·s/√m_eff,
// where s is the spread of the per-walk estimates and m_eff counts the walks
// whose estimate of that estimand is finite. Estimands finite in fewer than
// two walks carry NaN intervals — one walk has no between-walk spread.
type Replication struct {
	// Walks is the number of pooled walks, Level the confidence level.
	Walks int
	Level float64
	// Pooled is the estimate from the merged sums; PooledWithin the
	// within-category densities of the merged sums.
	Pooled       *core.Result
	PooledWithin []float64
	// Sizes, Within and SizesSE hold per-category intervals and standard
	// errors; pair-weight intervals are served by WeightCI.
	Sizes   []Interval
	SizesSE []float64
	Within  []Interval

	weightCI map[[2]int32]Interval
}

// WeightCI returns the between-walk interval of the pair weight ŵ(a,b).
// Pairs observed by no walk yield the degenerate [0, 0].
func (r *Replication) WeightCI(a, b int32) Interval {
	if iv, ok := r.weightCI[pairCanon(a, b)]; ok {
		return iv
	}
	return Interval{0, 0}
}

// ReplicationCI computes the between-walk variance intervals of the pooled
// estimate of m ≥ 2 independent walks, each summarized by its own
// core.Sums. The pooled center comes from merging the walk sums — exactly
// the multi-crawl composition of Sums.Merge (for the induced scenario the
// merged estimate describes the concatenation of the separate crawls, which
// is precisely the pooled multi-walk estimand here). The spread of the
// per-walk estimates around it is a design-based variance estimate that,
// unlike the bootstrap and the delta method, needs no independence
// assumption within a walk — between-walk replication is therefore the
// engine of choice for pooled crawls (cf. Table 2's 28- and 25-walk
// datasets).
func ReplicationCI(walks []*core.Sums, opts core.Options, level float64) (*Replication, error) {
	if len(walks) < 2 {
		return nil, fmt.Errorf("uncert: replication variance needs ≥ 2 walks, got %d", len(walks))
	}
	if !(level > 0 && level < 1) {
		return nil, fmt.Errorf("uncert: confidence level must lie in (0,1), got %g", level)
	}
	star := walks[0].Star
	k := walks[0].K
	merged := core.NewSums(k, star)
	for i, w := range walks {
		if err := merged.Merge(w); err != nil {
			return nil, fmt.Errorf("uncert: walk %d: %w", i, err)
		}
	}
	pooled, pooledWithin, err := estimateSums(merged, opts)
	if err != nil {
		return nil, err
	}

	// Per-walk estimates of every estimand, transposed per estimand. A
	// walk whose estimate failed is NaN across every estimand.
	m := len(walks)
	sizes, within := makeGrid(k, m), makeGrid(k, m)
	ests := make([]*core.Result, m)
	// Seed the pair universe with the pooled estimate so pairs observed by
	// only some walks still get intervals (a walk that never saw a pair
	// legitimately estimates its weight as 0).
	pairs := make(map[[2]int32]bool)
	addPair := func(a, b int32, _ float64) { pairs[[2]int32{a, b}] = true }
	pooled.Weights.ForEach(addPair)
	for i, wsums := range walks {
		res, win, err := estimateSums(wsums, opts)
		if err != nil {
			for c := 0; c < k; c++ {
				sizes[c][i], within[c][i] = math.NaN(), math.NaN()
			}
			continue
		}
		ests[i] = res
		res.Weights.ForEach(addPair)
		for c := 0; c < k; c++ {
			sizes[c][i], within[c][i] = res.Sizes[c], win[c]
		}
	}

	rep := &Replication{
		Walks:        m,
		Level:        level,
		Pooled:       pooled,
		PooledWithin: pooledWithin,
		Sizes:        make([]Interval, k),
		SizesSE:      make([]float64, k),
		Within:       make([]Interval, k),
		weightCI:     make(map[[2]int32]Interval, len(pairs)),
	}
	for c := 0; c < k; c++ {
		rep.Sizes[c], rep.SizesSE[c] = tInterval(pooled.Sizes[c], sizes[c], level)
		rep.Within[c], _ = tInterval(pooledWithin[c], within[c], level)
	}
	vals := make([]float64, m)
	for key := range pairs {
		for i, res := range ests {
			vals[i] = math.NaN()
			if res != nil {
				vals[i] = res.Weights.Get(key[0], key[1])
			}
		}
		center := pooled.Weights.Get(key[0], key[1])
		rep.weightCI[key], _ = tInterval(center, vals, level)
	}
	return rep, nil
}

// tInterval builds center ± t_{1−α/2, m−1}·s/√m from the finite per-walk
// values. With fewer than two finite walk estimates, or a non-finite center,
// the interval is NaN (SE stays defined from one walk as 0 only when m ≥ 2
// finite values exist — otherwise NaN).
func tInterval(center float64, walkVals []float64, level float64) (Interval, float64) {
	var mom stats.Moments
	for _, v := range walkVals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			mom.Add(v)
		}
	}
	if mom.N() < 2 || math.IsNaN(center) || math.IsInf(center, 0) {
		return nanInterval(), math.NaN()
	}
	m := float64(mom.N())
	se := math.Sqrt(mom.SampleVar() / m)
	t := stats.TQuantile(1-(1-level)/2, int(mom.N()-1))
	return Interval{center - t*se, center + t*se}, se
}
