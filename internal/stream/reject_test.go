package stream

import (
	"math"
	"testing"

	"repro/internal/sample"
)

// TestRejectReasonsAgree feeds every invalid record through every ingest
// path of its scenario — single-lock Accumulator.Ingest, EpochAccumulator.
// Ingest (history in the published directory) and a Local holding the
// history in its own epoch (star) — and requires the same error text on
// each, exactly one more rejection counted, under the same reason, and no
// draw applied.
func TestRejectReasonsAgree(t *testing.T) {
	const k = 3
	type obs = sample.NodeObservation
	starRec := obs{Node: 1, Cat: 0, Deg: 3, NbrCat: []int32{1}, NbrCnt: []float64{2}}
	cases := []struct {
		name, reason string
		star         bool
		history      []obs
		bad          obs
	}{
		{"star/category out of range", "bad_category", true, nil, obs{Node: 1, Cat: k}},
		{"star/negative weight", "bad_weight", true, nil, obs{Node: 1, Cat: 0, Weight: -1}},
		{"star/induced peers", "scenario_mismatch", true, nil, obs{Node: 1, Cat: 0, Peers: []int32{2}}},
		{"star/redraw category", "redraw_conflict", true, []obs{starRec}, obs{Node: 1, Cat: 1}},
		{"star/redraw weight", "redraw_conflict", true, []obs{{Node: 1, Cat: 0, Weight: 2}}, obs{Node: 1, Cat: 0, Weight: 3}},
		{"star/ragged counts", "bad_star", true, nil, obs{Node: 1, Cat: 0, NbrCat: []int32{1}}},
		{"star/conflicting counts", "star_conflict", true, []obs{starRec}, obs{Node: 1, Cat: 0, Deg: 3, NbrCat: []int32{1}, NbrCnt: []float64{3}}},
		{"star/conflicting degree", "star_conflict", true, []obs{starRec}, obs{Node: 1, Cat: 0, Deg: 4, NbrCat: []int32{1}, NbrCnt: []float64{2}}},

		{"induced/category out of range", "bad_category", false, nil, obs{Node: 1, Cat: -2}},
		{"induced/NaN weight", "bad_weight", false, nil, obs{Node: 1, Cat: 0, Weight: math.NaN()}},
		{"induced/star fields", "scenario_mismatch", false, nil, obs{Node: 1, Cat: 0, Deg: 2}},
		{"induced/redraw category", "redraw_conflict", false, []obs{{Node: 1, Cat: 0}}, obs{Node: 1, Cat: 2}},
		{"induced/redraw weight", "redraw_conflict", false, []obs{{Node: 1, Cat: 0, Weight: 2}}, obs{Node: 1, Cat: 0, Weight: 5}},
		{"induced/unknown peer", "unknown_peer", false, []obs{{Node: 1, Cat: 0}}, obs{Node: 2, Cat: 1, Peers: []int32{1, 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: k, Star: tc.star, N: 100}
			type path struct {
				name   string
				ingest func(obs) error
				draws  func() int
			}
			a, err := NewAccumulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			paths := []path{{"Accumulator", a.Ingest, a.Draws}}
			if tc.star {
				ea, err := NewEpochAccumulator(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				eaL, err := NewEpochAccumulator(cfg, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				l := eaL.NewLocal()
				defer l.Flush()
				paths = append(paths,
					path{"EpochAccumulator", func(rec sample.NodeObservation) error { return ingestOne(ea, rec) }, ea.Draws},
					path{"Local", l.Ingest, l.Pending})
			}
			var want string
			for _, p := range paths {
				for _, rec := range tc.history {
					if err := p.ingest(rec); err != nil {
						t.Fatalf("%s: history record %+v: %v", p.name, rec, err)
					}
				}
				draws := p.draws()
				reason0, total0 := mRejected.With(tc.reason).Value(), RejectedTotal()
				err := p.ingest(tc.bad)
				if err == nil {
					t.Fatalf("%s accepted %+v", p.name, tc.bad)
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Errorf("%s error %q, want %q", p.name, err, want)
				}
				if got := mRejected.With(tc.reason).Value() - reason0; got != 1 {
					t.Errorf("%s counted %d rejections under %q, want 1", p.name, got, tc.reason)
				}
				if got := RejectedTotal() - total0; got != 1 {
					t.Errorf("%s counted %d rejections in total, want 1", p.name, got)
				}
				if got := p.draws(); got != draws {
					t.Errorf("%s applied the rejected record: %d draws, had %d", p.name, got, draws)
				}
			}
		})
	}
}
