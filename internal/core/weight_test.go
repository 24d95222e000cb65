package core

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// TestPairWeightsMatchesMapOracle drives random Set/Add/Get/Merge/Reset/
// CopyFrom sequences through the flat pair table and through a plain
// map[uint64]float64 reference, over K from 2 to 5000 so the table grows
// through several doublings. Values must agree bit for bit and the key sets
// exactly — an explicit Set of 0 stores a pair that counts in Len, as a map
// assignment would.
func TestPairWeightsMatchesMapOracle(t *testing.T) {
	for _, k := range []int{2, 3, 7, 40, 300, 5000} {
		r := randx.New(uint64(k))
		p, q := NewPairWeights(k), NewPairWeights(k)
		pm, qm := map[uint64]float64{}, map[uint64]float64{}
		// Ops draw from a fixed pool of at most 4096 pairs, so sets, adds
		// and gets hit existing keys as well as new ones.
		pool := make([][2]int32, min(k*(k-1)/2, 4096))
		for i := range pool {
			a, b := int32(r.IntN(k)), int32(r.IntN(k-1))
			if b >= a {
				b++
			}
			pool[i] = [2]int32{a, b}
		}
		pair := func() (int32, int32) {
			x := pool[r.IntN(len(pool))]
			return x[0], x[1]
		}
		value := func() float64 {
			switch r.IntN(5) {
			case 0:
				return 0
			case 1:
				return -r.Float64()
			default:
				return r.NormFloat64() * 1e3
			}
		}
		check := func(step int, op string, got *PairWeights, want map[uint64]float64) {
			t.Helper()
			if got.Len() != len(want) {
				t.Fatalf("K=%d step %d (%s): Len %d, map holds %d", k, step, op, got.Len(), len(want))
			}
			seen := 0
			got.ForEach(func(a, b int32, w float64) {
				seen++
				if a >= b {
					t.Fatalf("K=%d step %d (%s): ForEach yielded unordered pair (%d,%d)", k, step, op, a, b)
				}
				mw, ok := want[pairKey(a, b)]
				if !ok {
					t.Fatalf("K=%d step %d (%s): pair (%d,%d) not in the map", k, step, op, a, b)
				}
				if math.Float64bits(w) != math.Float64bits(mw) {
					t.Fatalf("K=%d step %d (%s): pair (%d,%d) = %v, map %v", k, step, op, a, b, w, mw)
				}
			})
			if seen != len(want) {
				t.Fatalf("K=%d step %d (%s): ForEach visited %d pairs, map holds %d", k, step, op, seen, len(want))
			}
		}
		steps := 20000
		if k < 10 {
			steps = 2000
		}
		peak := 0
		for step := 0; step < steps; step++ {
			peak = max(peak, p.Len())
			op := r.IntN(100)
			switch {
			case op < 35:
				a, b := pair()
				w := value()
				p.Add(a, b, w)
				pm[pairKey(a, b)] += w
			case op < 55:
				a, b := pair()
				w := value()
				p.Set(b, a, w)
				pm[pairKey(a, b)] = w
			case op < 75:
				a, b := pair()
				if got, want := p.Get(a, b), pm[pairKey(a, b)]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("K=%d step %d: Get(%d,%d) = %v, map %v", k, step, a, b, got, want)
				}
			case op < 90:
				a, b := pair()
				w := value()
				q.Add(a, b, w)
				qm[pairKey(a, b)] += w
			case op < 95:
				if err := p.Merge(q); err != nil {
					t.Fatal(err)
				}
				for key, w := range qm {
					pm[key] += w
				}
				check(step, "merge", p, pm)
			default:
				q.CopyFrom(p)
				qm = make(map[uint64]float64, len(pm))
				for key, w := range pm {
					qm[key] = w
				}
				check(step, "copy", q, qm)
			}
			if step%16 == 0 {
				check(step, "p", p, pm)
				check(step, "q", q, qm)
			}
			// Periodic resets: long enough between them for the table to
			// grow through its doublings, and reuse afterwards.
			switch step % 5000 {
			case 2499:
				q.Reset()
				clear(qm)
				check(step, "reset q", q, qm)
			case 4999:
				p.Reset()
				clear(pm)
				check(step, "reset", p, pm)
				if got := p.Get(0, 1); got != 0 {
					t.Fatalf("K=%d step %d: Get after Reset = %v", k, step, got)
				}
			}
		}
		if k >= 300 && peak < 1000 {
			t.Fatalf("K=%d: the table peaked at %d pairs — the growth path went unexercised", k, peak)
		}
	}
}

// TestPairWeightsRejectsSentinelPair pins the one key the flat table cannot
// store: (−1,−1) packs to its free-slot sentinel and is not a category pair.
func TestPairWeightsRejectsSentinelPair(t *testing.T) {
	p := NewPairWeights(3)
	p.Set(0, 1, 2)
	if got := p.Get(-1, -1); got != 0 {
		t.Fatalf("Get(-1,-1) = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1,-1) did not panic")
		}
	}()
	p.Add(-1, -1, 1)
}
