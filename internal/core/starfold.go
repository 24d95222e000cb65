package core

// StarFold credits the star terms of many nodes to a Sums by category row.
// The star numerator of Eq. (9)/(16) is a row sum, Σ_{a∈S_A} |E_{a,B}|/w(a):
// Fold groups the queued nodes by category (a counting sort over the
// categories the queue touches), sums the neighbor rows of each category A
// into one dense K-length scratch, and credits each category's row with one
// AddStar call, so each touched (A,B) reaches the pair table once per fold
// instead of once per node. The result equals per-node AddStar up to float
// reassociation and stores the same pair set.
//
// The scratch is O(K), allocated once. A fold touches only the categories,
// row cells and terms its queue touched, so a sparse fold over a large K
// does no O(K) work. A StarFold is not safe for concurrent use.
type StarFold struct {
	terms []starTerm
	// order holds term indices grouped by category. start[c+1] counts the
	// queued terms of category c (graph.None at 0), then marks where its
	// group begins; it is zero again after every Fold.
	order []int32
	start []int32
	cats  []int32 // categories of the queued terms, in first-queued order
	// row is the current category's neighbor row: row[b] belongs to it
	// only when its stamp is gen. nbrs lists those b, mass their masses.
	row  []rowCell
	gen  uint32
	nbrs []int32
	mass []float64
}

// rowCell is one cell of StarFold's row. The mass and its stamp share a
// cell, so a sparse row costs one cache line per cell it touches.
type rowCell struct {
	x     float64
	stamp uint32
}

// starTerm is one queued node's star terms: AddStar's arguments with r =
// count/weight and t = count·deg/weight.
type starTerm struct {
	cat    int32
	r, t   float64
	nbrCat []int32
	nbrCnt []float64
}

// NewStarFold returns an empty fold over k categories.
func NewStarFold(k int) *StarFold {
	return &StarFold{
		start: make([]int32, k+1),
		row:   make([]rowCell, k),
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
	tm.cat, tm.r, tm.t, tm.nbrCat, tm.nbrCnt = cat, count/weight, count*deg/weight, nbrCat, nbrCnt
	if f.start[cat+1] == 0 {
		f.cats = append(f.cats, cat)
	}
	f.start[cat+1]++
}

// Fold credits every queued term to s and empties the queue.
func (f *StarFold) Fold(s *Sums) {
	// Counting sort: turn the counts into group ends, then place the terms
	// back to front, which leaves start at each group's beginning.
	var end int32
	for _, c := range f.cats {
		end += f.start[c+1]
		f.start[c+1] = end
	}
	if cap(f.order) < len(f.terms) {
		f.order = make([]int32, len(f.terms), cap(f.terms))
	}
	order := f.order[:len(f.terms)]
	for i := len(f.terms) - 1; i >= 0; i-- {
		c := f.terms[i].cat + 1
		f.start[c]--
		order[f.start[c]] = int32(i)
	}

	for j, a := range f.cats {
		lo, hi := f.start[a+1], int32(len(order))
		if j+1 < len(f.cats) {
			hi = f.start[f.cats[j+1]+1]
		}
		f.gen++
		if f.gen == 0 {
			// The stamps wrapped: clear them so none matches the new one.
			clear(f.row)
			f.gen = 1
		}
		var deg float64
		nbrs := f.nbrs[:0]
		for _, i := range order[lo:hi] {
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
		f.start[a+1] = 0
	}
	clear(f.terms) // drop the references to the count slices
	f.terms = f.terms[:0]
	f.cats = f.cats[:0]
}
