package core

// StarFold credits the star terms of many nodes to a Sums by category row.
// The star numerator of Eq. (9)/(16) is a row sum, Σ_{a∈S_A} |E_{a,B}|/w(a):
// Fold groups the queued nodes by category (CatGroups), sums the neighbor
// rows of each category A into one dense K-length scratch, and credits each
// category's row with one AddStar call, so each touched (A,B) reaches the
// pair table once per fold instead of once per node. The result equals
// per-node AddStar up to float reassociation and stores the same pair set.
//
// The scratch is O(K), allocated once. A fold touches only the categories,
// row cells and terms its queue touched, so a sparse fold over a large K
// does no O(K) work. A StarFold is not safe for concurrent use.
type StarFold struct {
	terms  []starTerm
	groups *CatGroups
	// row is the current category's neighbor row: row[b] belongs to it
	// only when its stamp is gen. nbrs lists those b, mass their masses.
	row  []rowCell
	gen  uint32
	nbrs []int32
	mass []float64
}

// CatGroups orders queued items by category: a counting sort over the
// categories the queue touches, stable in queue order, so the items of one
// category are folded together. Its scratch is O(K), allocated once, and a
// sort touches only the categories queued, so a sparse queue over a large
// K does no O(K) work. The replicate fold of internal/uncert shares it.
type CatGroups struct {
	of []int32 // each queued item's category
	// start[c+1] counts the queued items of category c (graph.None at 0),
	// then marks where its group begins; it is zero again after Each.
	start []int32
	cats  []int32 // queued categories, in first-queued order
	order []int32
}

// NewCatGroups returns an empty queue over k categories.
func NewCatGroups(k int) *CatGroups {
	return &CatGroups{start: make([]int32, k+1)}
}

// Add queues the next item, of category cat (graph.None allowed). Items are
// numbered from 0 in queue order.
func (g *CatGroups) Add(cat int32) {
	g.of = append(g.of, cat)
	if g.start[cat+1] == 0 {
		g.cats = append(g.cats, cat)
	}
	g.start[cat+1]++
}

// Each calls fn once per queued category, in first-queued order, with the
// numbers of its items in queue order, and empties the queue. items is
// valid only during the call.
func (g *CatGroups) Each(fn func(cat int32, items []int32)) {
	// Counting sort: turn the counts into group ends, then place the items
	// back to front, which leaves start at each group's beginning.
	var end int32
	for _, c := range g.cats {
		end += g.start[c+1]
		g.start[c+1] = end
	}
	if cap(g.order) < len(g.of) {
		g.order = make([]int32, len(g.of), cap(g.of))
	}
	order := g.order[:len(g.of)]
	for i := len(g.of) - 1; i >= 0; i-- {
		c := g.of[i] + 1
		g.start[c]--
		order[g.start[c]] = int32(i)
	}
	for j, c := range g.cats {
		lo, hi := g.start[c+1], int32(len(order))
		if j+1 < len(g.cats) {
			hi = g.start[g.cats[j+1]+1]
		}
		fn(c, order[lo:hi])
	}
	for _, c := range g.cats {
		g.start[c+1] = 0
	}
	g.of, g.cats = g.of[:0], g.cats[:0]
}

// rowCell is one cell of StarFold's row. The mass and its stamp share a
// cell, so a sparse row costs one cache line per cell it touches.
type rowCell struct {
	x     float64
	stamp uint32
}

// starTerm is one queued node's star terms: AddStar's arguments with r =
// count/weight and t = count·deg/weight (its category is queued in groups).
type starTerm struct {
	r, t   float64
	nbrCat []int32
	nbrCnt []float64
}

// NewStarFold returns an empty fold over k categories.
func NewStarFold(k int) *StarFold {
	return &StarFold{
		groups: NewCatGroups(k),
		row:    make([]rowCell, k),
	}
}

// Add queues the star terms of count draws of one node; the arguments are
// AddStar's. The count slices are read at Fold, not copied, so they must
// not change until then.
func (f *StarFold) Add(cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64) {
	n := len(f.terms)
	if n < cap(f.terms) {
		f.terms = f.terms[:n+1]
	} else {
		f.terms = append(f.terms, starTerm{})
	}
	tm := &f.terms[n]
	tm.r, tm.t, tm.nbrCat, tm.nbrCnt = count/weight, count*deg/weight, nbrCat, nbrCnt
	f.groups.Add(cat)
}

// Fold credits every queued term to s and empties the queue.
func (f *StarFold) Fold(s *Sums) {
	f.groups.Each(func(a int32, items []int32) {
		f.gen++
		if f.gen == 0 {
			// The stamps wrapped: clear them so none matches the new one.
			clear(f.row)
			f.gen = 1
		}
		var deg float64
		nbrs := f.nbrs[:0]
		for _, i := range items {
			tm := &f.terms[i]
			deg += tm.t
			for k, b := range tm.nbrCat {
				x := tm.r * tm.nbrCnt[k]
				if cell := &f.row[b]; cell.stamp != f.gen {
					cell.x, cell.stamp = x, f.gen
					nbrs = append(nbrs, b)
				} else {
					cell.x += x
				}
			}
		}
		mass := f.mass[:0]
		for _, b := range nbrs {
			mass = append(mass, f.row[b].x)
		}
		// With unit weight and count AddStar credits the masses as they are
		// (x·1 and x/1 are exact), so both paths credit through one formula.
		s.AddStar(a, 1, 1, deg, nbrs, mass)
		f.nbrs, f.mass = nbrs, mass
	})
	clear(f.terms) // drop the references to the count slices
	f.terms = f.terms[:0]
}
