package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stream"
	"repro/internal/uncert"
)

// checkTol is the largest relative difference the comparator accepts
// between the daemon's estimate and the in-process reference.
const checkTol = 1e-9

// estimateDoc is the part of topoestd's GET /estimate reply the comparator
// reads.
type estimateDoc struct {
	Draws       int         `json:"draws"`
	Distinct    int         `json:"distinct"`
	PopEstimate *float64    `json:"pop_estimate"`
	PopCI       *[2]float64 `json:"pop_ci"`
	Sizes       []sizeDoc   `json:"sizes"`
	Weights     []weightDoc `json:"weights"`
}

type sizeDoc struct {
	Cat      int32       `json:"cat"`
	Size     float64     `json:"size"`
	CI       *[2]float64 `json:"ci"`
	Within   *float64    `json:"within"`
	WithinCI *[2]float64 `json:"within_ci"`
}

type weightDoc struct {
	A  int32       `json:"a"`
	B  int32       `json:"b"`
	W  float64     `json:"w"`
	CI *[2]float64 `json:"ci"`
}

// flatten turns the reply into named scalars: draws, distinct, every size,
// within-density and pair weight, and both endpoints of every interval.
func (d *estimateDoc) flatten() map[string]float64 {
	out := map[string]float64{"draws": float64(d.Draws), "distinct": float64(d.Distinct)}
	put := func(key string, v *float64) {
		if v != nil {
			out[key] = *v
		}
	}
	putIv := func(key string, iv *[2]float64) {
		if iv != nil {
			out[key+".lo"], out[key+".hi"] = iv[0], iv[1]
		}
	}
	put("pop", d.PopEstimate)
	putIv("pop_ci", d.PopCI)
	for _, s := range d.Sizes {
		size := s.Size
		put(fmt.Sprintf("size[%d]", s.Cat), &size)
		putIv(fmt.Sprintf("size_ci[%d]", s.Cat), s.CI)
		put(fmt.Sprintf("within[%d]", s.Cat), s.Within)
		putIv(fmt.Sprintf("within_ci[%d]", s.Cat), s.WithinCI)
	}
	for _, w := range d.Weights {
		v := w.W
		put(fmt.Sprintf("w[%d,%d]", w.A, w.B), &v)
		putIv(fmt.Sprintf("w_ci[%d,%d]", w.A, w.B), w.CI)
	}
	return out
}

// referenceDoc renders an in-process snapshot the way GET /estimate does:
// non-finite values and intervals are omitted, and intervals are present
// only when the accumulator carries bootstrap replicates.
func referenceDoc(snap *stream.Snapshot, level float64) *estimateDoc {
	fin := func(x float64) *float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		return &x
	}
	iv := func(i uncert.Interval) *[2]float64 {
		if !i.Finite() {
			return nil
		}
		return &[2]float64{i.Lo, i.Hi}
	}
	d := &estimateDoc{Draws: snap.Draws, Distinct: snap.Distinct, PopEstimate: fin(snap.PopEstimate)}
	if snap.Boot != nil {
		d.PopCI = iv(snap.Boot.PopCI(level))
	}
	for c, size := range snap.Result.Sizes {
		s := sizeDoc{Cat: int32(c), Size: size, Within: fin(snap.Within[c])}
		if snap.Boot != nil {
			s.CI = iv(snap.Boot.SizeCI(c, level))
			s.WithinCI = iv(snap.Boot.WithinCI(c, level))
		}
		d.Sizes = append(d.Sizes, s)
	}
	snap.Result.Weights.ForEach(func(a, b int32, w float64) {
		if math.IsNaN(w) {
			return
		}
		var ci *[2]float64
		if snap.Boot != nil {
			ci = iv(snap.Boot.WeightCI(a, b, level))
		}
		d.Weights = append(d.Weights, weightDoc{A: a, B: b, W: w, CI: ci})
	})
	return d
}

// compareEstimates lists every scalar on which got and want differ by more
// than checkTol relative (absolute below 1e-300), or that only one side has.
// maxRel is the largest relative difference among the shared scalars.
func compareEstimates(got, want *estimateDoc) (mismatches []string, maxRel float64) {
	g, w := got.flatten(), want.flatten()
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		gv, gok := g[k]
		wv, wok := w[k]
		switch {
		case !gok:
			mismatches = append(mismatches, k+": missing from the daemon's estimate")
			continue
		case !wok:
			mismatches = append(mismatches, k+": missing from the reference")
			continue
		}
		diff := math.Abs(gv - wv)
		scale := math.Max(math.Abs(gv), math.Abs(wv))
		rel := 0.0
		if scale > 1e-300 {
			rel = diff / scale
		}
		maxRel = math.Max(maxRel, rel)
		if rel > checkTol {
			mismatches = append(mismatches, fmt.Sprintf("%s: daemon %.17g, reference %.17g (rel %.3g)", k, gv, wv, rel))
		}
	}
	return mismatches, maxRel
}
