package uncert

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sample"
)

// Replicates maintains B bootstrap replicate copies of the core.Sums
// sufficient statistics (plus the §4.3 collision statistics) for one stream.
// Every primary-sums mutation has a counterpart here that folds the same
// event into each replicate, scaled by the replicate's deterministic
// per-(node, replicate) Poisson(1) weight — the streaming analogue of
// resampling the distinct nodes of the sample with replacement. Because the
// weight is a pure function of (Seed, node, replicate), the replicate sums
// are order-independent exactly where the primary sums are, partition by
// node id, and Merge exactly like the primary sums.
//
// Layout and weight rows: the replicates are stored structure-of-arrays —
// one B-length vector per scalar statistic and one K×B grid per
// per-category statistic — instead of B independent core.Sums objects. A
// replicate update for one field then walks a contiguous vector rather than
// hopping across B heap objects, which is what used to make B=200 ingest
// ~50× the base path. Each node's B Poisson weights are expanded once into
// a dense uint8 row (weightRow, or LoadRow from the node's packed row). A
// node's draw and star terms make one straight-line pass over the row: an
// increment depends on the replicate only through its integer weight c, so
// each term is tabulated for c = 0…max (entry 0 exactly zero) and
// replicate b adds its table entry. There is no per-replicate branch:
// a sparse walk split by weight 0 / 1 / ≥2 mispredicts on most indices.
// Induced edge mass is replayed once per record (AddPeerMass): the edges
// are grouped by peer category, each group's peer weights are summed
// straight from the peers' packed rows (FillRow, which the caller builds
// once per node and keeps, so no weight is hashed per edge), and the sum
// is credited to the group's pair once, scaled by the drawn node's row.
//
// Star terms are credited only through a ReplicateFold (fold.go), which
// writes each node's terms to its category's rows (uncategorized nodes
// form one more group) and derives the scalar totals and nbrNum from those
// rows once per group; epoch flushes fold
// an epoch, the single-lock engine the records of one critical section.
// AddDraw/AddDraws remain the induced engine's per-record draw kernel, and
// drawTable and scale are the term tables both share.
//
// Replicates is not safe for concurrent use; internal/stream drives it under
// the accumulator lock (or inside a writer-private epoch local).
type Replicates struct {
	cfg  Config
	k    int
	star bool

	// Per-replicate scalar statistics, index [b].
	draws, totalRew, rewSq []float64
	degNum                 []float64 // star only
	// Per-replicate collision statistics (Ψ₁, Ψ₋₁, colliding pairs) for the
	// population-size estimator.
	psi1, psiInv, coll []float64

	// Per-category grids, category c's replicate row at [c*B : (c+1)*B].
	rew, drawsA, rew2, rewSqA, withinNum []float64
	degNumA, nbrNum                      []float64 // star only

	// pairs holds each canonical category pair's B replicate numerators
	// (the SoA counterpart of Sums.PairNum), indexed by pairIdx. Vectors are
	// kept across Reset — a zero vector and an absent pair estimate
	// identically.
	pairIdx map[[2]int32]int32
	pairs   []pairRow

	// dirty marks categories whose grid rows may hold nonzero values, and
	// dirtyPairs lists the pairs whose vectors may, so Merge and Reset walk
	// only what was touched — an epoch local that saw a handful of
	// categories and pairs merges O(touched·B), not O(K·B), and not
	// O(pairs ever touched · B).
	dirty      []bool
	dirtyCats  []int32
	dirtyPairs []int32

	// One-node weight row: ingest touches the same node several times per
	// record (draw + star terms, or the drawn endpoint of every incident
	// edge), and the B hash evaluations dominate the replicate update cost,
	// so the node's weights are expanded once (weightRow), or unpacked from
	// its packed row (LoadRow). w is the dense row of integer weights, its
	// capacity padded to whole row words, and wMax an upper bound on the
	// largest weight (the bitwise OR of the row), which bounds the
	// per-weight term tables.
	wNode  int32
	wValid bool
	w      []uint8
	wMax   uint8

	// peerCats groups an induced record's edges by peer category, and
	// peerSum (padded like w) sums one group's peer weights; AddPeerMass
	// builds both on first use, so star replicates never hold them.
	peerCats *core.CatGroups
	peerSum  []float64

	// arena is the ReservePairs backing store: pre-allocated B-vectors for
	// pairs not materialized yet, so CopyFrom under a publish mutex can hand
	// out fresh pair vectors without heap allocations.
	arena []float64
}

// NewReplicates returns empty replicate sums over k categories for the
// given scenario. cfg.B must be ≥ 1.
func NewReplicates(k int, star bool, cfg Config) (*Replicates, error) {
	if cfg.B < 1 {
		return nil, fmt.Errorf("uncert: need B ≥ 1 bootstrap replicates, got %d", cfg.B)
	}
	if k < 1 {
		return nil, fmt.Errorf("uncert: need K ≥ 1 categories, got %d", k)
	}
	B := cfg.B
	rs := &Replicates{
		cfg:       cfg,
		k:         k,
		star:      star,
		draws:     make([]float64, B),
		totalRew:  make([]float64, B),
		rewSq:     make([]float64, B),
		psi1:      make([]float64, B),
		psiInv:    make([]float64, B),
		coll:      make([]float64, B),
		rew:       make([]float64, k*B),
		drawsA:    make([]float64, k*B),
		rew2:      make([]float64, k*B),
		rewSqA:    make([]float64, k*B),
		withinNum: make([]float64, k*B),
		pairIdx:   make(map[[2]int32]int32),
		dirty:     make([]bool, k),
		w:         make([]uint8, B, 16*RowWords(B)),
	}
	if star {
		rs.degNum = make([]float64, B)
		rs.degNumA = make([]float64, k*B)
		rs.nbrNum = make([]float64, k*B)
	}
	return rs, nil
}

// Config returns the bootstrap configuration.
func (rs *Replicates) Config() Config { return rs.cfg }

// B returns the number of replicates.
func (rs *Replicates) B() int { return rs.cfg.B }

// mark records category c as touched (for sparse Merge/Reset).
func (rs *Replicates) mark(c int32) {
	if !rs.dirty[c] {
		rs.dirty[c] = true
		rs.dirtyCats = append(rs.dirtyCats, c)
	}
}

// markAll dirties every category (bulk loads).
func (rs *Replicates) markAll() {
	for c := range rs.dirty {
		if !rs.dirty[c] {
			rs.dirty[c] = true
			rs.dirtyCats = append(rs.dirtyCats, int32(c))
		}
	}
}

// weightRow expands node's replicate weights into the one-node row: the
// dense weights w and the bound wMax. Consecutive calls with the same node
// are free.
func (rs *Replicates) weightRow(node int32) {
	if rs.wValid && rs.wNode == node {
		return
	}
	rs.wMax = uint8(expandWeights(nodeHash(rs.cfg.Seed, node), 0, rs.w))
	rs.wNode, rs.wValid = node, true
}

// expandWeights writes the weights of replicates first, first+1, … of the
// node with hash hn into w and returns their bitwise OR. Weights 0–3 are
// classified without branches — (t_j−1−x)>>63 is 1 iff x ≥ t_j, so the
// three terms count the thresholds at or below x. The rare weights ≥ 4
// (≈1.9%) take poissonK's loop.
func expandWeights(hn uint64, first int, w []uint8) uint64 {
	t0, t1, t2, t3 := poissonThresh[0]-1, poissonThresh[1]-1, poissonThresh[2]-1, poissonThresh[3]
	var mx uint64
	for j := range w {
		b := first + j
		x := mix64(hn+uint64(b)) >> 11
		k := (t0-x)>>63 + (t1-x)>>63 + (t2-x)>>63
		if x >= t3 {
			k = poissonK(hn, b)
		}
		w[j] = uint8(k)
		mx |= k
	}
	return mx
}

// pairRow is one category pair's replicate numerators. dirty marks that
// the vector is listed in dirtyPairs; a pair not listed holds zeros.
type pairRow struct {
	key   [2]int32
	num   []float64
	dirty bool
}

// pairVec returns the replicate vector of the pair {a, b} for writing,
// allocating it zero-filled on first use and listing it as dirty.
func (rs *Replicates) pairVec(a, b int32) []float64 {
	key := pairCanon(a, b)
	i, ok := rs.pairIdx[key]
	if !ok {
		i = int32(len(rs.pairs))
		rs.pairIdx[key] = i
		rs.pairs = append(rs.pairs, pairRow{key: key, num: rs.newPairVec()})
	}
	p := &rs.pairs[i]
	if !p.dirty {
		p.dirty = true
		rs.dirtyPairs = append(rs.dirtyPairs, i)
	}
	return p.num
}

// AddDraw mirrors Sums.AddNode plus the collision-statistic updates for one
// fresh draw of node: replicate b folds the draw in with multiplicity
// c = PoissonWeight(node, b). prev is the node's primary multiplicity before
// the draw, so the replicate multiplicity advances prev·c → (prev+1)·c.
func (rs *Replicates) AddDraw(node, cat int32, weight, prev float64) {
	rs.AddDraws(node, cat, weight, 1, prev)
}

// drawTerms are the increments one replicate of weight c receives from
// AddDraws.
type drawTerms struct {
	m, mw, mw2, psi1, coll, rew2 float64
}

// AddDraws folds count fresh draws of node in one pass: replicate b's
// multiplicity advances prev·c → (prev+count)·c for c = PoissonWeight(node,
// b). It is the batched form epoch flushes use — one replicate pass per
// distinct node per epoch instead of one per draw — and, because the
// nonlinear statistics (collisions, Rew2) advance by their exact telescoped
// increments, merging the result into replicates holding the node at
// multiplicity prev reproduces the pooled stream's replicates exactly.
//
// Exactness of the two nonlinear terms, per replicate with weight c: the
// colliding-pair count of multiplicity m is f(m) = m(m−1)/2, so the jump
// prev·c → (prev+count)·c adds f((prev+count)c) − f(prev·c) =
// count·c·((2·prev+count)·c − 1)/2 (the cancellation-free factored form);
// Rew2's per-node square (m/w)² likewise adds the factored difference
// (count·c/w)·((2·prev+count)·c/w).
//
// The increments depend on the replicate only through c, so they are
// tabulated once per call for c = 0…wMax and the replicate pass is one
// table lookup per replicate. At c = 1 the formulas reduce exactly to
// count, count/weight, … (multiplying by 1 is exact). Entry 0 is zero, and
// adding +0 leaves every accumulator unchanged (sums started at +0 never
// reach −0), so weight-0 replicates need no branch.
func (rs *Replicates) AddDraws(node, cat int32, weight, count, prev float64) {
	rs.weightRow(node)
	var tab [32]drawTerms
	rs.drawTable(&tab, weight, count, prev)
	w := rs.w
	B := len(w)
	draws, totalRew, rewSq := rs.draws[:B], rs.totalRew[:B], rs.rewSq[:B]
	psi1, psiInv, coll := rs.psi1[:B], rs.psiInv[:B], rs.coll[:B]
	// Weights are at most len(poissonThresh) = 20; the k&31 masks below only
	// let the compiler drop the table bounds checks.
	if cat == graph.None {
		for b, k := range w {
			t := &tab[k&31]
			draws[b] += t.m
			totalRew[b] += t.mw
			rewSq[b] += t.mw2
			psi1[b] += t.psi1
			psiInv[b] += t.mw
			coll[b] += t.coll
		}
		return
	}
	rs.mark(cat)
	off := int(cat) * B
	drawsA := rs.drawsA[off : off+B]
	rew := rs.rew[off : off+B]
	rewSqA := rs.rewSqA[off : off+B]
	rew2 := rs.rew2[off : off+B]
	for b, k := range w {
		t := &tab[k&31]
		draws[b] += t.m
		totalRew[b] += t.mw
		rewSq[b] += t.mw2
		psi1[b] += t.psi1
		psiInv[b] += t.mw
		coll[b] += t.coll
		drawsA[b] += t.m
		rew[b] += t.mw
		rewSqA[b] += t.mw2
		rew2[b] += t.rew2
	}
}

// drawTable fills tab[c] with AddDraws's increments for a replicate of
// weight c = 1…wMax (tab[0] stays zero), for the current weight row.
func (rs *Replicates) drawTable(tab *[32]drawTerms, weight, count, prev float64) {
	for k := 1; k <= int(rs.wMax); k++ {
		c := float64(k)
		m := count * c
		tab[k] = drawTerms{
			m:    m,
			mw:   m / weight,
			mw2:  m / (weight * weight),
			psi1: m * weight,
			coll: m * ((2*prev+count)*c - 1) / 2,
			rew2: (m / weight) * ((2*prev + count) * c / weight),
		}
	}
}

// scale fills vt[c] = v·c for c = 1…wMax (vt[0] stays zero): a replicate
// of weight c adds vt[c] to a term linear in the node's multiplicity.
func (rs *Replicates) scale(vt *[32]float64, v float64) {
	for k := 1; k <= int(rs.wMax); k++ {
		vt[k] = v * float64(k)
	}
}

// rowEscape is the packed-row nibble that stands for a weight of 15 or
// more; readers recompute such weights with poissonK. Poisson(1) reaches 15
// with probability ≈3e-13, so the escape only keeps the rows exact.
const rowEscape = 15

// RowWords returns the length in words of a packed weight row for B
// replicates: 4 bits per replicate, 16 replicates per word.
func RowWords(B int) int { return (B + 15) / 16 }

// FillRow packs node's Poisson weights under cfg into row, which must hold
// RowWords(cfg.B) words: replicate b's weight is the 4-bit nibble b%16 of
// word b/16, weights ≥ 15 are stored as rowEscape, and nibbles past B are
// zero. A row depends only on (Seed, node), so callers that replay a node's
// edges many times build it once and keep it.
func FillRow(cfg Config, node int32, row []uint64) {
	hn := nodeHash(cfg.Seed, node)
	var w [16]uint8
	for i := range row {
		n := min(16, cfg.B-16*i)
		expandWeights(hn, 16*i, w[:n])
		var x uint64
		for j, k := range w[:n] {
			x |= uint64(min(k, rowEscape)) << (4 * j)
		}
		row[i] = x
	}
}

// escapeBits returns the word's escape nibbles: bit 4j is set iff all four
// bits of nibble j are.
func escapeBits(x uint64) uint64 {
	return x & (x >> 1) & (x >> 2) & (x >> 3) & nibbleLows
}

// nibbleLows has the low bit of every nibble set.
const nibbleLows = 0x1111111111111111

// escapes calls fn with every replicate whose nibble in row is rowEscape.
func escapes(row []uint64, fn func(b int)) {
	for i, x := range row {
		for esc := escapeBits(x); esc != 0; esc &= esc - 1 {
			fn(16*i + bits.TrailingZeros64(esc)/4)
		}
	}
}

// LoadRow makes node's packed row (FillRow) the one-node weight row, so
// node's following updates — AddDraws, AddPeerMass — read its weights
// instead of hashing them. The row is unpacked a word at a time: each half
// word's eight nibbles are spread to eight bytes with three shift-and-mask
// steps, and the weight bound is the OR of the nibbles. The words' escape
// nibbles are ORed together on the way, and only a row that holds one is
// walked again to recompute them. Consecutive calls with the same node are
// free.
func (rs *Replicates) LoadRow(node int32, row []uint64) {
	if rs.wValid && rs.wNode == node {
		return
	}
	w := rs.w[:cap(rs.w)]
	row = row[:len(w)/16]
	var or, esc uint64
	for i, x := range row {
		binary.LittleEndian.PutUint64(w[16*i:], spreadNibbles(x&0xffffffff))
		binary.LittleEndian.PutUint64(w[16*i+8:], spreadNibbles(x>>32))
		or |= x
		esc |= escapeBits(x)
	}
	or |= or >> 32
	or |= or >> 16
	or |= or >> 8
	mx := (or | or>>4) & 15
	if esc != 0 {
		hn := nodeHash(rs.cfg.Seed, node)
		escapes(row, func(b int) {
			k := poissonK(hn, b)
			w[b] = uint8(k)
			mx |= k
		})
	}
	rs.wMax = uint8(mx)
	rs.wNode, rs.wValid = node, true
}

// spreadNibbles moves nibble j of the low 32 bits of x to byte j.
func spreadNibbles(x uint64) uint64 {
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return (x | x<<4) & 0x0f0f0f0f0f0f0f0f
}

// PeerEdge is one induced edge that a record replays, seen from the drawn
// node: the far endpoint (its id, category and packed weight row) and the
// primary edge-mass increment, as passed to Sums.AddEdgeMass.
type PeerEdge struct {
	Node, Cat int32
	Row       []uint64
	Mass      float64
}

// AddPeerMass mirrors Sums.AddEdgeMass for every edge one induced record
// replays between node (of category cat) and its peers. Every primary
// increment is a product of the two endpoint multiplicities' changes, so
// replicate b scales edge (a, p)'s mass by c_a(b)·c_p(b). The edges are
// grouped by the peer's category (core.CatGroups, in first-seen order, so
// pairs are created in the order per-edge replay creates them), and each
// group of category C costs one replicate pass per peer plus one per group:
// its peers' Σ_p mass_p·c_p(b) is summed into scratch straight from their
// packed rows, a table lookup per nibble, and the (cat, C) target then gets
// c_a(b) times that sum, with one pair lookup per group. The result equals
// per-edge replay up to float reassociation, with the same dirty categories
// and pairs. Escape nibbles read 0 from the table and are added exactly for
// the peers whose rows hold one. Edges with an uncategorized endpoint
// add nothing. Load node's row first (LoadRow) to spare hashing its weights.
func (rs *Replicates) AddPeerMass(node, cat int32, edges []PeerEdge) {
	if cat == graph.None || len(edges) == 0 {
		return
	}
	rs.weightRow(node)
	if rs.peerCats == nil {
		rs.peerCats = core.NewCatGroups(rs.k)
		rs.peerSum = make([]float64, cap(rs.w))
	}
	for i := range edges {
		rs.peerCats.Add(edges[i].Cat)
	}
	B := rs.cfg.B
	rs.peerCats.Each(func(pc int32, items []int32) {
		if pc == graph.None {
			return
		}
		sum := rs.peerSum
		for _, i := range items {
			rs.addPeerRow(sum, &edges[i])
		}
		var tgt []float64
		if pc == cat {
			rs.mark(cat)
			off := int(cat) * B
			tgt = rs.withinNum[off : off+B]
		} else {
			tgt = rs.pairVec(cat, pc)
		}
		w := rs.w
		sum, tgt = sum[:len(w)], tgt[:len(w)]
		for b, k := range w {
			tgt[b] += float64(k) * sum[b]
			sum[b] = 0
		}
	})
}

// addPeerRow adds e.Mass·c_p(b) to sum[b] for every replicate b, reading
// the peer's weights c_p from its packed row through a table of the mass's
// multiples. sum is padded to whole row words; padding nibbles are zero and
// add +0. Escape nibbles add 0 from the table; the words' escape bits are
// ORed together on the way, and only a row that holds one is walked again
// to add their exact weights. A word's 16 nibbles are unrolled by hand: as
// a 16-step loop the kernel took nearly twice as long
// (BenchmarkReplicatePeerFold).
func (rs *Replicates) addPeerRow(sum []float64, e *PeerEdge) {
	var tab [16]float64 // tab[rowEscape] stays 0
	for c := 1; c < rowEscape; c++ {
		tab[c] = e.Mass * float64(c)
	}
	row := e.Row[:len(sum)/16]
	var esc uint64
	for i, x := range row {
		y := x & (x >> 1)
		esc |= y & (y >> 2) // escapeBits before its mask
		s := (*[16]float64)(sum[16*i:])
		s[0] += tab[x&15]
		s[1] += tab[x>>4&15]
		s[2] += tab[x>>8&15]
		s[3] += tab[x>>12&15]
		s[4] += tab[x>>16&15]
		s[5] += tab[x>>20&15]
		s[6] += tab[x>>24&15]
		s[7] += tab[x>>28&15]
		s[8] += tab[x>>32&15]
		s[9] += tab[x>>36&15]
		s[10] += tab[x>>40&15]
		s[11] += tab[x>>44&15]
		s[12] += tab[x>>48&15]
		s[13] += tab[x>>52&15]
		s[14] += tab[x>>56&15]
		s[15] += tab[x>>60]
	}
	if esc&nibbleLows != 0 {
		hn := nodeHash(rs.cfg.Seed, e.Node)
		escapes(row, func(b int) { sum[b] += e.Mass * float64(poissonK(hn, b)) })
	}
}

// Merge folds the replicate statistics of o into rs, replicate by
// replicate. Both sides must agree on B, seed, scenario and partition —
// then, because the Poisson weights are pure functions of (Seed, node,
// replicate), merged replicate sums equal the replicate sums of the
// concatenated stream wherever the primary sums do (independent star
// crawls, epoch locals whose draws were batched against the shared
// multiplicity). Only o's dirty category rows and pairs are walked, so
// merging a small epoch costs O(touched·B), not O(K·B) and not O(pairs o
// ever held · B).
func (rs *Replicates) Merge(o *Replicates) error {
	if o == nil {
		return nil
	}
	if rs.cfg != o.cfg {
		return fmt.Errorf("uncert: cannot merge replicates with config %+v into %+v", o.cfg, rs.cfg)
	}
	if rs.k != o.k || rs.star != o.star {
		return fmt.Errorf("uncert: cannot merge replicates over %d categories (star=%v) into %d (star=%v)", o.k, o.star, rs.k, rs.star)
	}
	vecAdd(rs.draws, o.draws)
	vecAdd(rs.totalRew, o.totalRew)
	vecAdd(rs.rewSq, o.rewSq)
	vecAdd(rs.psi1, o.psi1)
	vecAdd(rs.psiInv, o.psiInv)
	vecAdd(rs.coll, o.coll)
	if rs.star {
		vecAdd(rs.degNum, o.degNum)
	}
	B := rs.cfg.B
	for _, c := range o.dirtyCats {
		rs.mark(c)
		lo, hi := int(c)*B, int(c+1)*B
		vecAdd(rs.rew[lo:hi], o.rew[lo:hi])
		vecAdd(rs.drawsA[lo:hi], o.drawsA[lo:hi])
		vecAdd(rs.rew2[lo:hi], o.rew2[lo:hi])
		vecAdd(rs.rewSqA[lo:hi], o.rewSqA[lo:hi])
		vecAdd(rs.withinNum[lo:hi], o.withinNum[lo:hi])
		if rs.star {
			vecAdd(rs.degNumA[lo:hi], o.degNumA[lo:hi])
			vecAdd(rs.nbrNum[lo:hi], o.nbrNum[lo:hi])
		}
	}
	for _, i := range o.dirtyPairs {
		p := &o.pairs[i]
		vecAdd(rs.pairVec(p.key[0], p.key[1]), p.num)
	}
	return nil
}

// Reset zeroes the replicate statistics in place for reuse, keeping every
// allocation (grids, pair vectors, the weight row). Like Merge it walks
// only the dirty category rows and pairs. The weight row survives: Poisson weights
// are pure functions of (Seed, node, replicate), so a cached node stays
// valid across epochs.
func (rs *Replicates) Reset() {
	zero(rs.draws)
	zero(rs.totalRew)
	zero(rs.rewSq)
	zero(rs.psi1)
	zero(rs.psiInv)
	zero(rs.coll)
	zero(rs.degNum)
	B := rs.cfg.B
	for _, c := range rs.dirtyCats {
		lo, hi := int(c)*B, int(c+1)*B
		zero(rs.rew[lo:hi])
		zero(rs.drawsA[lo:hi])
		zero(rs.rew2[lo:hi])
		zero(rs.rewSqA[lo:hi])
		zero(rs.withinNum[lo:hi])
		if rs.star {
			zero(rs.degNumA[lo:hi])
			zero(rs.nbrNum[lo:hi])
		}
		rs.dirty[c] = false
	}
	rs.dirtyCats = rs.dirtyCats[:0]
	rs.resetPairs()
}

// resetPairs zeroes the dirty pair vectors and empties the dirty list.
func (rs *Replicates) resetPairs() {
	for _, i := range rs.dirtyPairs {
		p := &rs.pairs[i]
		zero(p.num)
		p.dirty = false
	}
	rs.dirtyPairs = rs.dirtyPairs[:0]
}

func vecAdd(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// fillSums materializes replicate b's per-category statistics into scratch,
// the bridge from the SoA layout to the shared size and within-density
// estimators. The pair numerators stay in the replicate vectors: Snapshot
// reads them there, by pair, and scratch's pair table is left empty.
func (rs *Replicates) fillSums(b int, scratch *core.Sums) {
	B := rs.cfg.B
	scratch.Draws = rs.draws[b]
	scratch.TotalRew = rs.totalRew[b]
	scratch.RewSq = rs.rewSq[b]
	if rs.star {
		scratch.DegNum = rs.degNum[b]
	}
	for c := 0; c < rs.k; c++ {
		off := c * B
		scratch.Rew[c] = rs.rew[off+b]
		scratch.DrawsA[c] = rs.drawsA[off+b]
		scratch.Rew2[c] = rs.rew2[off+b]
		scratch.RewSqA[c] = rs.rewSqA[off+b]
		scratch.WithinNum[c] = rs.withinNum[off+b]
		if rs.star {
			scratch.DegNumA[c] = rs.degNumA[off+b]
			scratch.NbrNum[c] = rs.nbrNum[off+b]
		}
	}
}

// loadColumn stores a fully built core.Sums (plus collision statistics) as
// replicate b — the offline ReplicatesFromObservation path.
func (rs *Replicates) loadColumn(b int, s *core.Sums, psi1, psiInv, coll float64) {
	B := rs.cfg.B
	rs.draws[b] = s.Draws
	rs.totalRew[b] = s.TotalRew
	rs.rewSq[b] = s.RewSq
	rs.psi1[b] = psi1
	rs.psiInv[b] = psiInv
	rs.coll[b] = coll
	if rs.star {
		rs.degNum[b] = s.DegNum
	}
	for c := 0; c < rs.k; c++ {
		off := c * B
		rs.rew[off+b] = s.Rew[c]
		rs.drawsA[off+b] = s.DrawsA[c]
		rs.rew2[off+b] = s.Rew2[c]
		rs.rewSqA[off+b] = s.RewSqA[c]
		rs.withinNum[off+b] = s.WithinNum[c]
		if rs.star {
			rs.degNumA[off+b] = s.DegNumA[c]
			rs.nbrNum[off+b] = s.NbrNum[c]
		}
	}
	s.PairNum.ForEach(func(x, y int32, w float64) {
		rs.pairVec(x, y)[b] = w
	})
	rs.markAll()
}

// ReplicatesFromObservation builds the replicate sums of a complete batch
// observation — the offline counterpart of streaming ingestion. Replicate b
// scales every node's multiplicity by its Poisson weight and rebuilds the
// sums through the identical core.SumsFromObservation path, so for the same
// Seed the result matches the streaming replicates up to float
// reassociation (the package tests pin this to 1e-9).
func ReplicatesFromObservation(o *sample.Observation, cfg Config) (*Replicates, error) {
	rs, err := NewReplicates(o.K, o.Star, cfg)
	if err != nil {
		return nil, err
	}
	clone := *o
	mult := make([]float64, len(o.Mult))
	hn := make([]uint64, len(o.Nodes))
	for i, v := range o.Nodes {
		hn[i] = nodeHash(cfg.Seed, v)
	}
	for b := 0; b < cfg.B; b++ {
		var psi1, psiInv, coll float64
		for i := range o.Nodes {
			c := float64(poissonK(hn[i], b))
			m := o.Mult[i] * c
			mult[i] = m
			psi1 += m * o.Weight[i]
			psiInv += m / o.Weight[i]
			coll += m * (m - 1) / 2
		}
		clone.Mult = mult
		rs.loadColumn(b, core.SumsFromObservation(&clone), psi1, psiInv, coll)
	}
	return rs, nil
}

// BootSnapshot holds the B replicate estimates of every estimand at one
// point in the stream: the raw material of any percentile CI. It is built
// once per snapshot in O(B·K² + B·pairs) and shares no mutable state with
// the accumulator; CIs at any level are then computed on demand without
// touching the stream again (the daemon serves /estimate?ci=<level> this
// way). Replicates whose total weight degenerated to zero — possible on very
// small samples — carry NaN and are excluded from intervals.
type BootSnapshot struct {
	// B is the number of replicates, K the number of categories.
	B, K int
	// Sizes[c] and Within[c] hold the B replicate estimates of category c's
	// size and within-density; Pop the replicate population-size estimates.
	Sizes  [][]float64
	Within [][]float64
	Pop    []float64

	pairs map[[2]int32][]float64
}

// Snapshot estimates every replicate's category graph and transposes the
// results into per-estimand replicate vectors. opts are the same estimation
// options the primary snapshot uses. It runs in two passes. The first fills
// one scratch core.Sums per replicate and estimates the sizes and
// within-densities, written straight into their per-category vectors. The
// second walks the pair vectors in sorted pair order and computes replicate
// b's weight of each pair with core.PairWeight from the replicate's own
// inverse-weight masses and sizes — the operations Sums.WeightsInduced and
// WeightsStar run on a replicate's sums, without building its pair table.
// A pair gets a vector when some replicate gives it a weight-table entry;
// entries a replicate does not give weigh 0, as in a PairWeights.
func (rs *Replicates) Snapshot(opts core.Options) *BootSnapshot {
	B := rs.cfg.B
	sizes, within := makeGrid(rs.k, B), makeGrid(rs.k, B)
	pop := make([]float64, B)
	failed := make([]bool, B)
	scratch := core.NewSums(rs.k, rs.star)
	for b := 0; b < B; b++ {
		rs.fillSums(b, scratch)
		sz, win, err := estimateSizes(scratch, opts)
		if err != nil {
			failed[b] = true
			for c := range sizes {
				sizes[c][b], within[c][b] = math.NaN(), math.NaN()
			}
			pop[b] = math.NaN()
			continue
		}
		for c := range sizes {
			sizes[c][b], within[c][b] = sz[c], win[c]
		}
		pop[b] = core.PopulationSizeFromSums(scratch.Draws, rs.psi1[b], rs.psiInv[b], rs.coll[b])
	}

	type pairNum struct {
		key [2]int32
		num []float64
	}
	nums := make([]pairNum, 0, len(rs.pairs))
	for _, p := range rs.pairs {
		nums = append(nums, pairNum{p.key, p.num})
	}
	slices.SortFunc(nums, func(x, y pairNum) int {
		return cmp.Or(cmp.Compare(x.key[0], y.key[0]), cmp.Compare(x.key[1], y.key[1]))
	})
	pairs := make(map[[2]int32][]float64, len(nums))
	arena := make([]float64, len(nums)*B)
	for _, p := range nums {
		key, num := p.key, p.num[:B]
		a, c := int(key[0]), int(key[1])
		rewA, rewC := rs.rew[a*B:a*B+B], rs.rew[c*B:c*B+B]
		sizeA, sizeC := sizes[a][:B], sizes[c][:B]
		out := arena[:B:B]
		seen := false
		for b, n := range num {
			// A zero numerator is a pair replicate b never observed: its
			// sums would hold no entry for it, and WeightsInduced and
			// WeightsStar weigh only stored pairs.
			if n == 0 || failed[b] {
				continue
			}
			if w, ok := core.PairWeight(rs.star, n, rewA[b], rewC[b], sizeA[b], sizeC[b]); ok {
				out[b], seen = w, true
			}
		}
		if !seen {
			continue
		}
		for b := range out {
			if failed[b] {
				out[b] = math.NaN()
			}
		}
		pairs[key] = out
		arena = arena[B:]
	}
	return &BootSnapshot{B: B, K: rs.k, Sizes: sizes, Within: within, Pop: pop, pairs: pairs}
}

// estimateSizes produces the category sizes and within-densities of one
// replicate's sums — the estimateSums sequence without the pair weights,
// which Snapshot computes per pair. An empty (zero-weight) replicate errors
// and is recorded as NaN.
func estimateSizes(s *core.Sums, opts core.Options) (sizes, within []float64, err error) {
	if s.Draws == 0 || s.TotalRew == 0 {
		return nil, nil, errDegenerate
	}
	if sizes, _, _, err = s.EstimateSizes(opts); err != nil {
		return nil, nil, err
	}
	within, err = s.WithinWeights(sizes)
	return sizes, within, err
}

func makeGrid(k, n int) [][]float64 {
	g := make([][]float64, k)
	for c := range g {
		g[c] = make([]float64, n)
	}
	return g
}

func pairCanon(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// errDegenerate is the error of a replicate (or walk) whose sums carry no
// weight.
var errDegenerate = errors.New("uncert: degenerate replicate")

// estimateSums produces the full estimate plus within-densities from one
// sums instance — the same sequence the stream snapshot runs on the primary
// sums. An empty (zero-weight) sums errors.
func estimateSums(s *core.Sums, opts core.Options) (*core.Result, []float64, error) {
	if s.Draws == 0 || s.TotalRew == 0 {
		return nil, nil, errDegenerate
	}
	res, err := s.Estimate(opts)
	if err != nil {
		return nil, nil, err
	}
	within, err := s.WithinWeights(res.Sizes)
	if err != nil {
		return nil, nil, err
	}
	return res, within, nil
}

// SizeCI returns the percentile CI of category c's size at the given level.
func (bs *BootSnapshot) SizeCI(c int, level float64) Interval {
	return percentile(bs.Sizes[c], level)
}

// SizeSD returns the bootstrap standard error of category c's size.
func (bs *BootSnapshot) SizeSD(c int) float64 { return sdFinite(bs.Sizes[c]) }

// WithinCI returns the percentile CI of category c's within-density.
func (bs *BootSnapshot) WithinCI(c int, level float64) Interval {
	return percentile(bs.Within[c], level)
}

// WeightCI returns the percentile CI of the pair weight ŵ(a,b). Pairs never
// observed in any replicate yield the degenerate [0, 0].
func (bs *BootSnapshot) WeightCI(a, b int32, level float64) Interval {
	if v, ok := bs.pairs[pairCanon(a, b)]; ok {
		return percentile(v, level)
	}
	return Interval{0, 0}
}

// WeightReplicates returns the replicate vector of pair {a,b} (nil when the
// pair was never observed). The slice is owned by the snapshot.
func (bs *BootSnapshot) WeightReplicates(a, b int32) []float64 {
	return bs.pairs[pairCanon(a, b)]
}

// PopCI returns the percentile CI of the population-size estimate N̂.
// Replicates without collisions estimate +Inf and are excluded; if no
// replicate saw a collision the interval is NaN.
func (bs *BootSnapshot) PopCI(level float64) Interval { return percentile(bs.Pop, level) }
