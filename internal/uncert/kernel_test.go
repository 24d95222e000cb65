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

// LoadRow is a no-op: the oracle hashes every weight it reads.
func (o *sparseOracle) LoadRow(int32, []uint64) {}

// AddPeerMass replays the record's edges one at a time, each scaled per
// replicate by c_a·(mass·c_p), hashing the peer's weights.
func (o *sparseOracle) AddPeerMass(node, cat int32, edges []PeerEdge) {
	for _, e := range edges {
		o.addEdgeMass(node, cat, e.Node, e.Cat, e.Mass)
	}
}

func (o *sparseOracle) addEdgeMass(nodeA, catA, nodeB, catB int32, mass float64) {
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
		tgt[b] += o.bigVal[j] * (mass * float64(poissonK(hb, int(b))))
	}
}

// inducedKernel is the induced update surface both kernels share.
type inducedKernel interface {
	AddDraws(node, cat int32, weight, count, prev float64)
	LoadRow(node int32, row []uint64)
	AddPeerMass(node, cat int32, edges []PeerEdge)
}

// starKernel is the star update surface both kernels share.
type starKernel interface {
	AddDraws(node, cat int32, weight, count, prev float64)
	AddStar(node, cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64)
}

// oneTermFold drives a Replicates with star terms through one-term folds:
// a fold of one term adds exactly what a per-node credit adds, so a star
// stream stays bit-comparable with the oracle.
type oneTermFold struct {
	*Replicates
	f *ReplicateFold
}

func (k oneTermFold) AddStar(node, cat int32, weight, count, deg float64, nbrCat []int32, nbrCnt []float64) {
	k.f.AddStar(node, cat, weight, count, deg, nbrCat, nbrCnt)
	k.f.Fold(k.Replicates)
}

// perEdge drives a Replicates with one AddPeerMass call per edge, so each
// group holds one peer and the kernel computes every edge's term as the
// oracle does, c_a·(mass·c_p), bit for bit.
type perEdge struct{ *Replicates }

func (k perEdge) AddPeerMass(node, cat int32, edges []PeerEdge) {
	for i := range edges {
		k.Replicates.AddPeerMass(node, cat, edges[i:i+1])
	}
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
	row     []uint64 // packed weight row, built on first draw or use as a peer
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
func feedStarStream(kr starKernel, seed uint64, k, steps int) {
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

// feedInducedStream drives kernel with an induced stream shaped like the
// accumulator's calls: each draw loads the node's packed weight row and
// folds the node in, then replays one AddPeerMass per record — on a re-draw
// every observed edge at the peer's multiplicity, plus, on the first draw
// and on some re-draws, newly visible edges at their full product mass.
// Every seventh node's row carries forced escape nibbles (weights ≥ 15 are
// too rare to meet by chance), so the kernel must recompute them on either
// endpoint.
func feedInducedStream(kr inducedKernel, cfg Config, seed uint64, k, steps int) {
	r := randx.New(seed)
	nodes := kernelNodes(r, 300, k)
	rowOf := func(nd *kernelNode) []uint64 {
		if nd.row == nil {
			nd.row = make([]uint64, RowWords(cfg.B))
			FillRow(cfg, nd.id, nd.row)
			if nd.id%7 == 0 {
				for _, b := range []int{0, cfg.B / 2, cfg.B - 1} {
					nd.row[b/16] |= rowEscape << (4 * (b % 16))
				}
			}
		}
		return nd.row
	}
	var edges []PeerEdge
	for step := 0; step < steps; step++ {
		i := pick(r, len(nodes))
		nd := &nodes[i]
		prev := nd.mult
		kr.LoadRow(nd.id, rowOf(nd))
		kr.AddDraws(nd.id, nd.cat, nd.weight, 1, prev)
		nd.mult++
		edges = edges[:0]
		if prev > 0 {
			for _, j := range nd.edgesTo {
				p := &nodes[j]
				edges = append(edges, PeerEdge{Node: p.id, Cat: p.cat, Row: rowOf(p), Mass: p.mult / (nd.weight * p.weight)})
			}
		}
		if prev == 0 || r.IntN(4) == 0 {
			for j := range nodes {
				if j != i && nodes[j].mult > 0 && r.IntN(8) == 0 && !slices.Contains(nd.edgesTo, j) {
					nd.edgesTo = append(nd.edgesTo, j)
					nodes[j].edgesTo = append(nodes[j].edgesTo, i)
					p := &nodes[j]
					edges = append(edges, PeerEdge{Node: p.id, Cat: p.cat, Row: rowOf(p), Mass: nd.mult * p.mult / (nd.weight * p.weight)})
				}
			}
		}
		kr.AddPeerMass(nd.id, nd.cat, edges)
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
// through the dense-row kernels (star terms in one-term folds) and the
// sparse oracle and requires every replicate value to agree bit for bit.
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
				feedStarStream(oneTermFold{got, NewReplicateFold(k)}, uint64(B), k, 3000)
				feedStarStream(oracle, uint64(B), k, 3000)
			} else {
				feedInducedStream(perEdge{got}, cfg, uint64(B), k, 1500)
				feedInducedStream(oracle, cfg, uint64(B), k, 1500)
			}
			requireSameReplicates(t, got, want)
		}
	}
}

// peerCoverage counts what the induced stream fed to AddPeerMass exercised.
type peerCoverage struct {
	inducedKernel
	multiCat, nonePeer, noneNode, escPeer, escNode int
}

func (c *peerCoverage) LoadRow(node int32, row []uint64) {
	if hasEscape(row) {
		c.escNode++
	}
	c.inducedKernel.LoadRow(node, row)
}

// hasEscape reports whether row holds an escape nibble.
func hasEscape(row []uint64) bool {
	for _, x := range row {
		if escapeBits(x) != 0 {
			return true
		}
	}
	return false
}

func (c *peerCoverage) AddPeerMass(node, cat int32, edges []PeerEdge) {
	cats := map[int32]bool{}
	for _, e := range edges {
		cats[e.Cat] = true
		if hasEscape(e.Row) {
			c.escPeer++
		}
	}
	if len(cats) > 1 {
		c.multiCat++
	}
	if cats[graph.None] {
		c.nonePeer++
	}
	if cat == graph.None && len(edges) > 0 {
		c.noneNode++
	}
	c.inducedKernel.AddPeerMass(node, cat, edges)
}

// TestPeerFoldMatchesPerEdge feeds induced streams through AddPeerMass one
// record at a time, grouped by peer category, and through the per-edge
// oracle, and requires every replicate vector to agree within 1e-12
// relative, with the same pairs created in the same order and the same
// dirty categories and pairs. The streams hold uncategorized endpoints,
// records whose peers span several categories, re-draws that replay old
// edges and add new ones in one record, and forced escape nibbles on drawn
// nodes and on peers; B = 7, 200 and 257 leave a partial last row word.
func TestPeerFoldMatchesPerEdge(t *testing.T) {
	const k = 5
	for _, B := range []int{1, 7, 16, 200, 257} {
		cfg := Config{B: B, Seed: uint64(B)*13 + 1}
		got, err := NewReplicates(k, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewReplicates(k, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cov := &peerCoverage{inducedKernel: got}
		feedInducedStream(cov, cfg, uint64(B)+100, k, 1500)
		feedInducedStream(&sparseOracle{rs: want}, cfg, uint64(B)+100, k, 1500)
		what := fmt.Sprintf("B=%d", B)
		if cov.multiCat == 0 || cov.nonePeer == 0 || cov.noneNode == 0 || cov.escPeer == 0 || cov.escNode == 0 {
			t.Fatalf("%s: stream coverage %+v", what, *cov)
		}
		compareFolded(t, what, got, want, 1e-12, true)
		pairKeys := func(rs *Replicates) [][2]int32 {
			var keys [][2]int32
			for _, p := range rs.pairs {
				keys = append(keys, p.key)
			}
			return keys
		}
		if g, w := pairKeys(got), pairKeys(want); !slices.Equal(g, w) {
			t.Fatalf("%s: pairs %v, per-edge %v", what, g, w)
		}
		if !slices.Equal(got.dirtyCats, want.dirtyCats) || !slices.Equal(got.dirtyPairs, want.dirtyPairs) {
			t.Fatalf("%s: dirty categories %v and pairs %v, per-edge %v and %v", what, got.dirtyCats, got.dirtyPairs, want.dirtyCats, want.dirtyPairs)
		}
	}
}

// TestWeightRowMatchesPoissonK checks the expanded weight row of many nodes
// against poissonK: the dense weights and the bound on the largest weight,
// with the far tail (weights ≥ 4) exercised.
func TestWeightRowMatchesPoissonK(t *testing.T) {
	const B = 300
	rs, err := NewReplicates(1, true, Config{B: B, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for node := int32(-5000); node < 7000; node++ {
		rs.weightRow(node)
		hn := nodeHash(99, node)
		var mx uint64
		for b := 0; b < B; b++ {
			c := poissonK(hn, b)
			if uint64(rs.w[b]) != c {
				t.Fatalf("node %d rep %d: row weight %d, poissonK %d", node, b, rs.w[b], c)
			}
			if c >= 4 {
				tail++
			}
			mx = max(mx, c)
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
// every nibble, every weight LoadRow unpacks from the row, and the weight
// bound, against poissonK, with the far tail (weights ≥ 4) exercised. B =
// 300 leaves a partial last word, whose padding nibbles must stay zero.
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
		rs.LoadRow(node, row)
		hn := nodeHash(cfg.Seed, node)
		w := rs.w[:cap(rs.w)]
		var mx uint64
		for b := 0; b < 16*len(row); b++ {
			var want uint64
			if b < cfg.B {
				want = poissonK(hn, b)
			}
			if nib := row[b/16] >> (4 * (b % 16)) & 15; nib != min(want, rowEscape) {
				t.Fatalf("node %d rep %d: nibble %d, poissonK %d", node, b, nib, want)
			}
			if uint64(w[b]) != want {
				t.Fatalf("node %d rep %d: unpacked weight %d, poissonK %d", node, b, w[b], want)
			}
			if want >= 4 {
				tail++
			}
			mx = max(mx, want)
		}
		if uint64(rs.wMax) < mx || rs.wMax > 31 {
			t.Fatalf("node %d: weight bound %d, largest weight %d", node, rs.wMax, mx)
		}
	}
	if tail == 0 {
		t.Fatal("no weight ≥ 4 in the sample")
	}
}

// TestRowEscapeRecomputed forces escape nibbles into packed rows — weights
// ≥ 15 are too rare to meet by chance — and checks that the weights LoadRow
// unpacks and the edge mass AddPeerMass replays from them are those of
// poissonK, not 15, on either endpoint of the edge.
func TestRowEscapeRecomputed(t *testing.T) {
	cfg := Config{B: 40, Seed: 3}
	const nodeA, nodeB = 7, 11
	var rows, forced [2][]uint64
	for i, node := range []int32{nodeA, nodeB} {
		rows[i] = make([]uint64, RowWords(cfg.B))
		FillRow(cfg, node, rows[i])
		forced[i] = append([]uint64(nil), rows[i]...)
		for _, b := range []int{0, 5, 15, 16, 39} {
			forced[i][b/16] |= rowEscape << (4 * (b % 16))
		}
	}
	want, err := NewReplicates(2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewReplicates(2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.LoadRow(nodeA, rows[0])
	want.AddPeerMass(nodeA, 0, []PeerEdge{{Node: nodeB, Cat: 1, Row: rows[1], Mass: 0.75}})
	got.LoadRow(nodeA, forced[0])
	hn := nodeHash(cfg.Seed, nodeA)
	for b := 0; b < cfg.B; b++ {
		if c := poissonK(hn, b); uint64(got.w[b]) != c {
			t.Fatalf("rep %d: unpacked weight %d, poissonK %d", b, got.w[b], c)
		}
	}
	got.AddPeerMass(nodeA, 0, []PeerEdge{{Node: nodeB, Cat: 1, Row: forced[1], Mass: 0.75}})
	requireSameReplicates(t, got, want)
}

// BenchmarkReplicatePeerFold times the replicate half of one paper-graph-
// shaped induced re-draw at B = 200: the drawn node's row is loaded and its
// 24 peers, 8 in each of 3 categories (its own among them), replay their
// edge mass. "fold" is one AddPeerMass call, grouped by peer category;
// "peredge" replays the same edges one call per edge. Two drawn nodes take
// turns, so every op unpacks a row.
func BenchmarkReplicatePeerFold(b *testing.B) {
	cfg := Config{B: 200, Seed: 1}
	r := randx.New(1)
	var drawn [2]PeerEdge
	for i := range drawn {
		drawn[i] = PeerEdge{Node: int32(1000 + i), Cat: 0, Row: make([]uint64, RowWords(cfg.B))}
		FillRow(cfg, drawn[i].Node, drawn[i].Row)
	}
	edges := make([]PeerEdge, 24)
	for i := range edges {
		e := &edges[i]
		e.Node, e.Cat, e.Mass = int32(i), int32(i%3), 0.5+r.Float64()
		e.Row = make([]uint64, RowWords(cfg.B))
		FillRow(cfg, e.Node, e.Row)
	}
	for _, mode := range []string{"fold", "peredge"} {
		b.Run(mode, func(b *testing.B) {
			rs, err := NewReplicates(3, false, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var kr inducedKernel = rs
			if mode == "peredge" {
				kr = perEdge{rs}
			}
			for i := 0; b.Loop(); i++ {
				d := &drawn[i&1]
				kr.LoadRow(d.Node, d.Row)
				kr.AddPeerMass(d.Node, d.Cat, edges)
			}
		})
	}
}
