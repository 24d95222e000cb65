package uncert

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/randx"
)

// sparseOracle is the replicate kernel the dense weight rows replaced, kept
// as the reference they must reproduce bit for bit: a one-node cache of the
// nonzero weights split into a weight-1 index list (walked with hoisted
// constants) and a weight-≥2 remainder, with zero-weight replicates never
// touched. It writes into an ordinary Replicates so the two kernels' states
// compare through Raw.
type sparseOracle struct {
	rs     *Replicates
	node   int32
	valid  bool
	ones   []int32
	big    []int32
	bigVal []float64
}

func (o *sparseOracle) sparseWeights(node int32) {
	if o.valid && o.node == node {
		return
	}
	o.ones = o.ones[:0]
	o.big = o.big[:0]
	o.bigVal = o.bigVal[:0]
	hn := nodeHash(o.rs.cfg.Seed, node)
	for b := 0; b < o.rs.cfg.B; b++ {
		switch c := poissonK(hn, b); {
		case c == 0:
		case c == 1:
			o.ones = append(o.ones, int32(b))
		default:
			o.big = append(o.big, int32(b))
			o.bigVal = append(o.bigVal, float64(c))
		}
	}
	o.node, o.valid = node, true
}

func (o *sparseOracle) AddDraws(node, cat int32, weight, count, prev float64) {
	rs := o.rs
	o.sparseWeights(node)
	B := rs.cfg.B
	dm := count
	dmw := count / weight
	dmw2 := count / (weight * weight)
	dpsi1 := count * weight
	dcoll1 := count * (2*prev + count - 1) / 2
	drew21 := (count / weight) * ((2*prev + count) / weight)
	for _, b := range o.ones {
		rs.draws[b] += dm
		rs.totalRew[b] += dmw
		rs.rewSq[b] += dmw2
		rs.psi1[b] += dpsi1
		rs.psiInv[b] += dmw
		rs.coll[b] += dcoll1
	}
	for j, b := range o.big {
		c := o.bigVal[j]
		m := count * c
		rs.draws[b] += m
		rs.totalRew[b] += m / weight
		rs.rewSq[b] += m / (weight * weight)
		rs.psi1[b] += m * weight
		rs.psiInv[b] += m / weight
		rs.coll[b] += m * ((2*prev+count)*c - 1) / 2
	}
	if cat == graph.None {
		return
	}
	rs.mark(cat)
	off := int(cat) * B
	drawsA := rs.drawsA[off : off+B]
	rew := rs.rew[off : off+B]
	rewSqA := rs.rewSqA[off : off+B]
	rew2 := rs.rew2[off : off+B]
	for _, b := range o.ones {
		drawsA[b] += dm
		rew[b] += dmw
		rewSqA[b] += dmw2
		rew2[b] += drew21
	}
	for j, b := range o.big {
		c := o.bigVal[j]
		m := count * c
		drawsA[b] += m
		rew[b] += m / weight
		rewSqA[b] += m / (weight * weight)
		rew2[b] += (m / weight) * ((2*prev + count) * c / weight)
	}
}

func (o *sparseOracle) AddStar(node, cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64) {
	rs := o.rs
	o.sparseWeights(node)
	B := rs.cfg.B
	t := count * deg / weight
	for _, b := range o.ones {
		rs.degNum[b] += t
	}
	for j, b := range o.big {
		rs.degNum[b] += t * o.bigVal[j]
	}
	if cat != graph.None {
		rs.mark(cat)
		off := int(cat) * B
		degNumA := rs.degNumA[off : off+B]
		for _, b := range o.ones {
			degNumA[b] += t
		}
		for j, b := range o.big {
			degNumA[b] += t * o.bigVal[j]
		}
	}
	for j, nb := range nbrCat {
		v := count / weight * nbrCnt[j]
		rs.mark(nb)
		noff := int(nb) * B
		nbrNum := rs.nbrNum[noff : noff+B]
		for _, b := range o.ones {
			nbrNum[b] += v
		}
		for jj, b := range o.big {
			nbrNum[b] += v * o.bigVal[jj]
		}
		if cat == graph.None {
			continue
		}
		var tgt []float64
		if nb == cat {
			off := int(cat) * B
			tgt = rs.withinNum[off : off+B]
		} else {
			tgt = rs.pairVec(cat, nb)
		}
		for _, b := range o.ones {
			tgt[b] += v
		}
		for jj, b := range o.big {
			tgt[b] += v * o.bigVal[jj]
		}
	}
}

func (o *sparseOracle) AddEdgeMass(nodeA, nodeB, catA, catB int32, _ []uint64, mass float64) {
	if catA == graph.None || catB == graph.None {
		return
	}
	rs := o.rs
	o.sparseWeights(nodeA)
	hb := nodeHash(rs.cfg.Seed, nodeB)
	var tgt []float64
	if catA == catB {
		rs.mark(catA)
		off := int(catA) * rs.cfg.B
		tgt = rs.withinNum[off : off+rs.cfg.B]
	} else {
		tgt = rs.pairVec(catA, catB)
	}
	for _, b := range o.ones {
		tgt[b] += mass * float64(poissonK(hb, int(b)))
	}
	for j, b := range o.big {
		tgt[b] += mass * o.bigVal[j] * float64(poissonK(hb, int(b)))
	}
}

// replicateKernel is the update surface both kernels share.
type replicateKernel interface {
	AddDraws(node, cat int32, weight, count, prev float64)
	AddStar(node, cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64)
	AddEdgeMass(nodeA, nodeB, catA, catB int32, rowB []uint64, mass float64)
}

// kernelNode is the per-node state of a generated stream.
type kernelNode struct {
	id      int32
	cat     int32
	weight  float64
	mult    float64
	deg     float64
	star    bool
	nbrCat  []int32
	nbrCnt  []float64
	edgesTo []int    // indices of observed induced neighbors
	row     []uint64 // packed weight row, built on first use as a peer
}

// kernelNodes draws n nodes with ids around zero (negative ids included), a
// tenth of them uncategorized, and non-trivial sampling weights.
func kernelNodes(r *rand.Rand, n, k int) []kernelNode {
	nodes := make([]kernelNode, n)
	for i := range nodes {
		nd := &nodes[i]
		nd.id = int32(i - n/8)
		nd.cat = int32(r.IntN(k))
		if r.IntN(10) == 0 {
			nd.cat = graph.None
		}
		nd.weight = 0.25 + 4*r.Float64()
	}
	return nodes
}

// pick returns a node index skewed toward low indices, so the stream
// re-draws nodes often and runs of one node hit the cached weight row.
func pick(r *rand.Rand, n int) int { return r.IntN(r.IntN(n) + 1) }

// feedStarStream drives kernel with a star stream shaped like the
// accumulator's calls: draws batched into counts > 1 on top of earlier
// multiplicity (epoch flushes), star terms with each draw once a node's star
// is known, late-star backfill of the earlier multiplicity, and degree
// retrofits whose deltas may be negative. One node is a hub whose
// neighbors span every category.
func feedStarStream(kr replicateKernel, seed uint64, k, steps int) {
	r := randx.New(seed)
	nodes := kernelNodes(r, 400, k)
	for step := 0; step < steps; step++ {
		nd := &nodes[pick(r, len(nodes))]
		count := 1.0
		if r.IntN(3) == 0 {
			count = float64(2 + r.IntN(4))
		}
		prev := nd.mult
		kr.AddDraws(nd.id, nd.cat, nd.weight, count, prev)
		nd.mult += count
		switch {
		case nd.star && r.IntN(20) == 0:
			// Degree retrofit: the replayed delta may be negative.
			newDeg := math.Max(nd.deg+float64(r.IntN(7)-3), 0)
			kr.AddStar(nd.id, nd.cat, nd.weight, nd.mult, newDeg-nd.deg, nil, nil)
			nd.deg = newDeg
		case nd.star:
			kr.AddStar(nd.id, nd.cat, nd.weight, count, nd.deg, nd.nbrCat, nd.nbrCnt)
		case r.IntN(2) == 0:
			// Star data arrives now; with prev > 0 it backfills the earlier
			// bare draws too.
			span := 1 + r.IntN(4)
			if nd == &nodes[0] {
				span = k
			}
			for _, c := range r.Perm(k)[:span] {
				nd.nbrCat = append(nd.nbrCat, int32(c))
			}
			slices.Sort(nd.nbrCat)
			for range nd.nbrCat {
				cnt := float64(1 + r.IntN(5))
				nd.nbrCnt = append(nd.nbrCnt, cnt)
				nd.deg += cnt
			}
			nd.deg += float64(r.IntN(3)) // uncategorized neighbors
			nd.star = true
			kr.AddStar(nd.id, nd.cat, nd.weight, nd.mult, nd.deg, nd.nbrCat, nd.nbrCnt)
		}
	}
}

// feedInducedStream drives kernel with an induced stream: each draw folds in
// the node, and every edge to an observed neighbor adds edge mass — on the
// first draw for newly visible edges, on re-draws for all observed ones. The
// neighbor's packed weight row under cfg rides along with each edge.
func feedInducedStream(kr replicateKernel, cfg Config, seed uint64, k, steps int) {
	r := randx.New(seed)
	nodes := kernelNodes(r, 300, k)
	for step := 0; step < steps; step++ {
		i := pick(r, len(nodes))
		nd := &nodes[i]
		prev := nd.mult
		kr.AddDraws(nd.id, nd.cat, nd.weight, 1, prev)
		nd.mult++
		if prev == 0 {
			for j := range nodes {
				if j != i && nodes[j].mult > 0 && r.IntN(8) == 0 {
					nd.edgesTo = append(nd.edgesTo, j)
					nodes[j].edgesTo = append(nodes[j].edgesTo, i)
				}
			}
		}
		for _, j := range nd.edgesTo {
			p := &nodes[j]
			mass := p.mult / (nd.weight * p.weight)
			if prev == 0 {
				mass = nd.mult * p.mult / (nd.weight * p.weight)
			}
			if p.row == nil {
				p.row = make([]uint64, RowWords(cfg.B))
				FillRow(cfg, p.id, p.row)
			}
			kr.AddEdgeMass(nd.id, p.id, nd.cat, p.cat, p.row, mass)
		}
	}
}

// rawVectors lists every replicate vector of rs by name, pairs included.
func rawVectors(rs *Replicates) map[string][]float64 {
	r := rs.Raw()
	out := map[string][]float64{
		"draws": r.Draws, "totalRew": r.TotalRew, "rewSq": r.RewSq,
		"psi1": r.Psi1, "psiInv": r.PsiInv, "coll": r.Coll, "degNum": r.DegNum,
		"rew": r.Rew, "drawsA": r.DrawsA, "rew2": r.Rew2, "rewSqA": r.RewSqA,
		"withinNum": r.WithinNum, "degNumA": r.DegNumA, "nbrNum": r.NbrNum,
	}
	for key, v := range r.Pairs {
		out[fmt.Sprintf("pair%v", key)] = v
	}
	return out
}

// requireSameReplicates compares every replicate vector of got and want.
// Go may contract x*y+z into a fused multiply-add on targets such as arm64,
// and the two kernels place their products differently, so bit equality is
// required where the compiler never contracts (amd64, 386) and a 1e-12
// relative tolerance applies elsewhere.
func requireSameReplicates(t *testing.T, got, want *Replicates) {
	t.Helper()
	exact := runtime.GOARCH == "amd64" || runtime.GOARCH == "386"
	gv, wv := rawVectors(got), rawVectors(want)
	if len(gv) != len(wv) {
		t.Fatalf("%d replicate vectors, oracle has %d", len(gv), len(wv))
	}
	for name, w := range wv {
		g, ok := gv[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: length %d, oracle %d", name, len(g), len(w))
		}
		for i := range w {
			same := math.Float64bits(g[i]) == math.Float64bits(w[i])
			if !same && !exact {
				same = relOrAbs(g[i], w[i]) <= 1e-12
			}
			if !same {
				t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", name, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
}

// TestKernelMatchesSparseOracle feeds identical star and induced streams
// through the dense-row kernel and the sparse oracle and requires every
// replicate value to agree bit for bit.
func TestKernelMatchesSparseOracle(t *testing.T) {
	const k = 70 // the star hub spans ≥ 64 categories
	for _, B := range []int{1, 7, 64, 100, 200, 257, 1000} {
		for _, star := range []bool{true, false} {
			cfg := Config{B: B, Seed: uint64(B)*31 + 5}
			got, err := NewReplicates(k, star, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewReplicates(k, star, cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle := &sparseOracle{rs: want}
			if star {
				feedStarStream(got, uint64(B), k, 3000)
				feedStarStream(oracle, uint64(B), k, 3000)
			} else {
				feedInducedStream(got, cfg, uint64(B), k, 1500)
				feedInducedStream(oracle, cfg, uint64(B), k, 1500)
			}
			requireSameReplicates(t, got, want)
		}
	}
}

// TestWeightRowMatchesPoissonK checks the expanded weight row of many nodes
// against poissonK: the dense weights, the nonzero index list, and the
// bound on the largest weight, with the far tail (weights ≥ 4) exercised.
func TestWeightRowMatchesPoissonK(t *testing.T) {
	const B = 300
	rs, err := NewReplicates(1, true, Config{B: B, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	var want []int32
	for node := int32(-5000); node < 7000; node++ {
		rs.weightRow(node)
		hn := nodeHash(99, node)
		want = want[:0]
		var mx uint64
		for b := 0; b < B; b++ {
			c := poissonK(hn, b)
			if uint64(rs.w[b]) != c {
				t.Fatalf("node %d rep %d: row weight %d, poissonK %d", node, b, rs.w[b], c)
			}
			if c > 0 {
				want = append(want, int32(b))
			}
			if c >= 4 {
				tail++
			}
			mx = max(mx, c)
		}
		if nz := rs.nonzero(); !slices.Equal(nz, want) {
			t.Fatalf("node %d: nonzero list %v, want %v", node, nz, want)
		}
		if uint64(rs.wMax) < mx || rs.wMax > 31 {
			t.Fatalf("node %d: weight bound %d, largest weight %d", node, rs.wMax, mx)
		}
	}
	if tail == 0 {
		t.Fatal("no weight ≥ 4 in the sample")
	}
}

// TestFillRowMatchesPoissonK packs the weight rows of many nodes and checks
// every nibble, and every weight AddEdgeMass unpacks from the row, against
// poissonK, with the far tail (weights ≥ 4) exercised. B = 300 leaves a
// partial last word, whose padding nibbles must stay zero.
func TestFillRowMatchesPoissonK(t *testing.T) {
	cfg := Config{B: 300, Seed: 99}
	rs, err := NewReplicates(1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]uint64, RowWords(cfg.B))
	tail := 0
	for node := int32(-5000); node < 7000; node++ {
		FillRow(cfg, node, row)
		rs.unpackRow(node, row)
		hn := nodeHash(cfg.Seed, node)
		for b := 0; b < 16*len(row); b++ {
			var want uint64
			if b < cfg.B {
				want = poissonK(hn, b)
			}
			if nib := row[b/16] >> (4 * (b % 16)) & 15; nib != min(want, rowEscape) {
				t.Fatalf("node %d rep %d: nibble %d, poissonK %d", node, b, nib, want)
			}
			if uint64(rs.pw[b]) != want {
				t.Fatalf("node %d rep %d: unpacked weight %d, poissonK %d", node, b, rs.pw[b], want)
			}
			if want >= 4 {
				tail++
			}
		}
	}
	if tail == 0 {
		t.Fatal("no weight ≥ 4 in the sample")
	}
}

// TestRowEscapeRecomputed forces escape nibbles into a packed row — weights
// ≥ 15 are too rare to meet by chance — and checks that the unpacked weights
// and the edge mass replayed from the row are those of poissonK, not 15.
func TestRowEscapeRecomputed(t *testing.T) {
	cfg := Config{B: 40, Seed: 3}
	const nodeA, nodeB = 7, 11
	row := make([]uint64, RowWords(cfg.B))
	FillRow(cfg, nodeB, row)
	forced := append([]uint64(nil), row...)
	for _, b := range []int{0, 5, 15, 16, 39} {
		forced[b/16] |= rowEscape << (4 * (b % 16))
	}
	want, err := NewReplicates(2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewReplicates(2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.AddEdgeMass(nodeA, nodeB, 0, 1, row, 0.75)
	got.AddEdgeMass(nodeA, nodeB, 0, 1, forced, 0.75)
	hn := nodeHash(cfg.Seed, nodeB)
	for b := 0; b < cfg.B; b++ {
		if c := poissonK(hn, b); uint64(got.pw[b]) != c {
			t.Fatalf("rep %d: unpacked weight %d, poissonK %d", b, got.pw[b], c)
		}
	}
	requireSameReplicates(t, got, want)
}
