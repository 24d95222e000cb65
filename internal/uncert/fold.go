package uncert

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// ReplicateFold credits the replicate terms of many nodes to a Replicates
// by category row — the replicate counterpart of core.StarFold, and the
// only kernel of star replicate terms: epoch flushes fold a whole epoch,
// the single-lock engine one critical section's records. AddDraws writes
// a node's scalar totals (draws, totalRew, psiInv, rewSq) next to the
// category rows they are sums of, and a star term would write degNum and
// every neighbor's nbrNum row likewise. The fold instead groups the queued
// terms by category (core.CatGroups) and lets a node write only its
// group's rows (drawsA, rew, rewSqA, rew2, degNumA, held in B-length
// scratch while the group is folded), the psi1 and coll vectors, and one
// directed (A, B) row per neighbor category B: about 7 + n_cat replicate
// passes per node instead of 12 + 2·n_cat. Closing a group then adds its
// rows to the scalar totals and each directed row to nbrNum[B]; a category
// also adds its rows to its grids and each directed row to withinNum[A] or
// the pair {A, B}. Uncategorized nodes form one more group, which has no
// grid, within row or pair to write.
//
// Every term uses the tables of Replicates.AddDraws (drawTable, scale), so
// the result equals a per-node credit of each term up to float
// reassociation, with the same dirty categories and the same created
// pairs; a fold of one term adds exactly what a per-node credit adds. The
// scratch is 5·B floats, one B-row per distinct neighbor category of one
// group's nodes, and an O(K) stamp array; a fold touches only what its
// queue touched. A ReplicateFold is not safe for concurrent use.
type ReplicateFold struct {
	terms  []repTerm
	groups *core.CatGroups

	// own holds the current group's five rows, B floats each: drawsA,
	// rew, rewSqA, rew2, degNumA. dir holds its directed neighbor rows, row
	// j (neighbor category dirCat[j]) at [j·B, (j+1)·B); slot[b] locates
	// neighbor category b's row when its stamp is gen. Both are zero
	// between groups.
	own    []float64
	dir    []float64
	dirCat []int32
	slot   []dirSlot
	gen    uint32
}

// dirSlot maps a neighbor category to its directed row in the current
// group's fold.
type dirSlot struct {
	stamp uint32
	row   int32
}

// repTerm is one queued draw (star false) or star (star true) term; its
// category is queued in groups.
type repTerm struct {
	node          int32
	star          bool
	weight, count float64
	prev, deg     float64 // AddDraws's prev, AddStar's deg
	nbrCat        []int32
	nbrCnt        []float64
}

// NewReplicateFold returns an empty fold over k categories.
func NewReplicateFold(k int) *ReplicateFold {
	return &ReplicateFold{groups: core.NewCatGroups(k), slot: make([]dirSlot, k)}
}

// AddDraws queues Replicates.AddDraws(node, cat, weight, count, prev).
func (f *ReplicateFold) AddDraws(node, cat int32, weight, count, prev float64) {
	t := f.next(cat)
	t.node, t.star, t.weight, t.count, t.prev = node, false, weight, count, prev
}

// AddStar queues the star term of count draws of node, the replicate
// mirror of core.Sums.AddStar: replicate b credits count·c star draws of
// degree deg and neighbor counts nbrCnt over categories nbrCat, where
// c = PoissonWeight(node, b). Like its core counterpart it is linear in
// count and deg, so late-star backfills and degree retrofits queue their
// owed terms here unchanged. The count slices are read at Fold, not
// copied, so they must not change until then.
func (f *ReplicateFold) AddStar(node, cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64) {
	t := f.next(cat)
	t.node, t.star, t.weight, t.count = node, true, weight, count
	t.deg, t.nbrCat, t.nbrCnt = deg, nbrCat, nbrCnt
}

// next queues a term of category cat and returns its slot, reusing the
// queue's backing array; Fold reads only the fields its kind sets.
func (f *ReplicateFold) next(cat int32) *repTerm {
	n := len(f.terms)
	if n < cap(f.terms) {
		f.terms = f.terms[:n+1]
	} else {
		f.terms = append(f.terms, repTerm{})
	}
	f.groups.Add(cat)
	return &f.terms[n]
}

// Fold credits every queued term to rs, which must be over the fold's k
// categories (and of the star scenario if any AddStar term is queued), and
// empties the queue. Grouping is stable, so the terms of one node stay
// adjacent and share its weight row.
func (f *ReplicateFold) Fold(rs *Replicates) {
	if B := rs.cfg.B; len(f.own) < 5*B {
		f.own = make([]float64, 5*B)
	}
	f.groups.Each(func(cat int32, items []int32) { f.foldGroup(rs, cat, items) })
	clear(f.terms) // drop the references to the count slices
	f.terms = f.terms[:0]
}

// foldGroup credits the terms items, all of category a (graph.None for
// uncategorized nodes), to rs.
func (f *ReplicateFold) foldGroup(rs *Replicates, a int32, items []int32) {
	B := rs.cfg.B
	f.gen++
	if f.gen == 0 {
		// The stamps wrapped: clear them so none matches the new one.
		clear(f.slot)
		f.gen = 1
	}
	f.dirCat = f.dirCat[:0]
	own := f.own[:5*B]
	drawsA, rew, rewSqA, rew2, degNumA := own[:B], own[B:][:B], own[2*B:][:B], own[3*B:][:B], own[4*B:][:B]
	psi1, coll := rs.psi1[:B], rs.coll[:B]
	var tab [32]drawTerms
	var tt, vt [32]float64
	for _, i := range items {
		t := &f.terms[i]
		rs.weightRow(t.node)
		w := rs.w[:B]
		// The k&31 masks only let the compiler drop the table bounds checks
		// (weights are at most len(poissonThresh) = 20).
		if !t.star {
			rs.drawTable(&tab, t.weight, t.count, t.prev)
			for b, k := range w {
				d := &tab[k&31]
				psi1[b] += d.psi1
				coll[b] += d.coll
				drawsA[b] += d.m
				rew[b] += d.mw
				rewSqA[b] += d.mw2
				rew2[b] += d.rew2
			}
			continue
		}
		rs.scale(&tt, t.count*t.deg/t.weight)
		for b, k := range w {
			degNumA[b] += tt[k&31]
		}
		for j, nb := range t.nbrCat {
			rs.scale(&vt, t.count/t.weight*t.nbrCnt[j])
			row := f.dirRow(nb, B)[:B]
			for b, k := range w {
				row[b] += vt[k&31]
			}
		}
	}

	// Close the group: its rows go to the scalar totals and, for a
	// category, to its grids in the same pass; the scratch is zeroed on the
	// way.
	draws, totalRew, psiInv, rewSq := rs.draws[:B], rs.totalRew[:B], rs.psiInv[:B], rs.rewSq[:B]
	off := int(a) * B
	if a == graph.None {
		for b := range drawsA {
			draws[b] += drawsA[b]
			totalRew[b] += rew[b]
			psiInv[b] += rew[b]
			rewSq[b] += rewSqA[b]
		}
		if rs.star {
			vecAdd(rs.degNum[:B], degNumA)
		}
	} else {
		rs.mark(a)
		gDrawsA, gRew := rs.drawsA[off:][:B], rs.rew[off:][:B]
		gRewSqA, gRew2 := rs.rewSqA[off:][:B], rs.rew2[off:][:B]
		for b := range drawsA {
			gDrawsA[b] += drawsA[b]
			draws[b] += drawsA[b]
			gRew[b] += rew[b]
			totalRew[b] += rew[b]
			psiInv[b] += rew[b]
			gRewSqA[b] += rewSqA[b]
			rewSq[b] += rewSqA[b]
			gRew2[b] += rew2[b]
		}
		if rs.star {
			gDegNumA, degNum := rs.degNumA[off:][:B], rs.degNum[:B]
			for b, x := range degNumA {
				gDegNumA[b] += x
				degNum[b] += x
			}
		}
	}
	clear(own)
	for j, nb := range f.dirCat {
		row := f.dir[j*B:][:B]
		rs.mark(nb)
		nbrNum := rs.nbrNum[int(nb)*B:][:B]
		if a == graph.None {
			for b, x := range row {
				nbrNum[b] += x
				row[b] = 0
			}
			continue
		}
		var tgt []float64
		if nb == a {
			tgt = rs.withinNum[off : off+B]
		} else {
			tgt = rs.pairVec(a, nb)
		}
		tgt = tgt[:B]
		for b, x := range row {
			nbrNum[b] += x
			tgt[b] += x
			row[b] = 0
		}
	}
}

// dirRow returns the current group's directed row toward neighbor
// category nb, taking the next zero row of the slab on first touch.
func (f *ReplicateFold) dirRow(nb int32, B int) []float64 {
	s := &f.slot[nb]
	if s.stamp != f.gen {
		j := len(f.dirCat)
		f.dirCat = append(f.dirCat, nb)
		if len(f.dir) < (j+1)*B {
			f.dir = append(f.dir, make([]float64, B)...)
		}
		s.stamp, s.row = f.gen, int32(j)
	}
	j := int(s.row)
	return f.dir[j*B : (j+1)*B]
}
