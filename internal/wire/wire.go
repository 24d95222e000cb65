// Package wire holds the daemon's three binary formats: TOPOSUM1, a
// stream.State — the Hansen–Hurwitz sufficient statistics (core.Sums), the
// §4.3 population-size scalars and the online-bootstrap replicate sums
// (uncert.Replicates) — that workers serve on GET /sums and a merge
// coordinator decodes and re-merges; TOPOCKP1, the CRC-framed checkpoint
// that wraps a TOPOSUM1 state with the node directory for append-only
// files (checkpoint.go); and TOPOREC1, the CRC-framed batch of observations
// that POST /ingest accepts as a binary body (records.go).
//
// All three follow one discipline, implemented once in codec.go:
//
//   - Prefix. Every frame opens with an 8-byte magic and a u32 version; a
//     decoder rejects a short header, a foreign magic, and version 0 or one
//     newer than this build before reading anything else.
//   - CRC. TOPOCKP1 and TOPOREC1 carry a u32 payload length and the CRC-32
//     (IEEE) of the payload. An encoder rejects a payload the length field
//     cannot describe; a decoder verifies the checksum before parsing.
//   - Bounds. Every read is length-checked, so truncated or corrupt input is
//     an error, never a read past the buffer, and a header-declared count
//     cannot drive an allocation the remaining bytes could not fill.
//   - Canonical form. Integers are little-endian, floats travel as raw
//     IEEE-754 binary64 bits, tables are emitted in one canonical order,
//     reserved fields are zero, and decoders reject anything else.
//   - Bijection. Decode∘Encode is the identity on values and Encode∘Decode
//     the identity on accepted byte strings, which the fuzz targets check
//     (FuzzDecode, FuzzDecodeRecords, FuzzDecodeCheckpoint).
//
// TOPOSUM1 layout (all integers little-endian, all floats IEEE-754
// binary64 bits):
//
//	offset  size  field
//	     0     8  magic "TOPOSUM1"
//	     8     4  version (currently 1)
//	    12     4  flags: bit0 = star scenario, bit1 = replicates present
//	    16     4  k (number of categories, 1 … 1<<24)
//	    20     4  B (bootstrap replicates; 0 unless bit1 set)
//	    24     8  gen (ingest generation of the cut)
//	    32     8  bootstrap seed (0 unless bit1 set)
//	    40     4  sumsPairs (entries in the primary pair table)
//	    44     4  repPairs (entries in the replicate pair table)
//	    48     8  distinct (int64, distinct nodes at the cut)
//	    56     8  reserved (zero)
//	    64     …  section A: 8 float64 — draws, totalRew, rewSq, degNum,
//	              psi1, psiInv, collisions, reserved(0)
//	           …  section B: per-category float64[k] arrays — Rew, DrawsA,
//	              Rew2, RewSqA, WithinNum, then DegNumA, NbrNum when star
//	           …  section C: sumsPairs × (a uint32, b uint32, w float64),
//	              canonical 0 ≤ a < b < k, strictly increasing by (a, b)
//	           …  section D (bit1 only): replicate scalar float64[B] vectors
//	              draws, totalRew, rewSq, psi1, psiInv, coll, then degNum
//	              when star; replicate float64[k·B] grids rew, drawsA, rew2,
//	              rewSqA, withinNum, then degNumA, nbrNum when star;
//	              repPairs × (a uint32, b uint32, float64[B]), canonical and
//	              strictly increasing by (a, b)
//
// The total size is a function of (flags, k, B, sumsPairs, repPairs) alone;
// Decode computes it up front and requires exact equality.
package wire

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/uncert"
)

const (
	// Version is the codec version this build writes and the newest it
	// decodes. Workers advertise it in the VersionHeader HTTP header so a
	// coordinator can reject a payload before buffering it.
	Version = 1

	// ContentType is the MIME type of an encoded state on the wire.
	ContentType = "application/x-topoest-sums"
	// VersionHeader carries the codec version on /sums responses.
	VersionHeader = "X-Topoest-Sums-Version"

	magic      = "TOPOSUM1"
	headerSize = 64

	flagStar       = 1 << 0
	flagReplicates = 1 << 1
	flagsKnown     = flagStar | flagReplicates
)

var sumsFormat = format{noun: "sums payload", magic: magic, version: Version, header: headerSize}

type pairEntry struct {
	a, b int32
	w    float64
}

// Encode serializes a state. The state must be well-formed: Sums present and
// matching the declared K/scenario, and replicates (when present) matching
// too — Export produces exactly such states.
func Encode(st *stream.State) ([]byte, error) {
	if st == nil || st.Sums == nil {
		return nil, fmt.Errorf("wire: cannot encode a nil state")
	}
	if st.K < 1 || st.K > MaxDim {
		return nil, fmt.Errorf("wire: state has %d categories, encodable range is 1…%d", st.K, MaxDim)
	}
	if st.Sums.K != st.K || st.Sums.Star != st.Star {
		return nil, fmt.Errorf("wire: state sums (k=%d star=%v) disagree with state header (k=%d star=%v)",
			st.Sums.K, st.Sums.Star, st.K, st.Star)
	}

	// Primary pair table, canonical order.
	sumsPairs := make([]pairEntry, 0, st.Sums.PairNum.Len())
	st.Sums.PairNum.ForEach(func(a, b int32, w float64) {
		sumsPairs = append(sumsPairs, pairEntry{a, b, w})
	})
	sortPairs(sumsPairs)

	var (
		flags    uint32
		bB       int
		seed     uint64
		raw      *uncert.RawReplicates
		repPairs []pairEntry // keys only
	)
	if st.Star {
		flags |= flagStar
	}
	if st.Reps != nil {
		cfg := st.Reps.Config()
		if cfg.B < 1 || cfg.B > MaxDim {
			return nil, fmt.Errorf("wire: state has %d bootstrap replicates, encodable range is 1…%d", cfg.B, MaxDim)
		}
		flags |= flagReplicates
		bB = cfg.B
		seed = cfg.Seed
		raw = st.Reps.Raw()
		if raw.K != st.K || raw.Star != st.Star {
			return nil, fmt.Errorf("wire: state replicates (k=%d star=%v) disagree with state header (k=%d star=%v)",
				raw.K, raw.Star, st.K, st.Star)
		}
		repPairs = make([]pairEntry, 0, len(raw.Pairs))
		for key := range raw.Pairs {
			repPairs = append(repPairs, pairEntry{a: key[0], b: key[1]})
		}
		sortPairs(repPairs)
	}

	buf := make([]byte, totalSize(flags, st.K, bB, len(sumsPairs), len(repPairs)))
	sumsFormat.putPrefix(buf)
	w := writer{buf: buf, off: 12}
	w.u32(flags)
	w.u32(uint32(st.K))
	w.u32(uint32(bB))
	w.u64(st.Gen)
	w.u64(seed)
	w.u32(uint32(len(sumsPairs)))
	w.u32(uint32(len(repPairs)))
	w.u64(uint64(st.Distinct))
	w.u64(0)

	// Section A.
	s := st.Sums
	w.f64(s.Draws)
	w.f64(s.TotalRew)
	w.f64(s.RewSq)
	w.f64(s.DegNum)
	w.f64(st.Psi1)
	w.f64(st.PsiInv)
	w.f64(st.Collisions)
	w.f64(0)

	// Section B.
	for _, arr := range catArrays(s) {
		w.f64s(st.K, arr)
	}

	// Section C.
	for _, p := range sumsPairs {
		w.u32(uint32(p.a))
		w.u32(uint32(p.b))
		w.f64(p.w)
	}

	// Section D.
	if raw != nil {
		scalars, grids := repVectors(raw)
		for _, v := range scalars {
			w.f64s(bB, *v)
		}
		for _, g := range grids {
			w.f64s(st.K*bB, *g)
		}
		for _, p := range repPairs {
			w.u32(uint32(p.a))
			w.u32(uint32(p.b))
			w.f64s(bB, raw.Pairs[[2]int32{p.a, p.b}])
		}
	}

	return sumsFormat.seal(&w), nil
}

// Decode parses an encoded state, validating the header, the exact payload
// length, and the canonical form of both pair tables before touching any
// section. Corrupt, truncated, or future-version input fails with a
// descriptive error; accepted input re-encodes byte-identically.
func Decode(data []byte) (*stream.State, error) {
	if err := sumsFormat.check(data); err != nil {
		return nil, err
	}
	r := reader{buf: data, off: 12, noun: sumsFormat.noun}
	flags := r.u32()
	k := r.u32()
	bB := r.u32()
	gen := r.u64()
	seed := r.u64()
	sumsPairs := r.u32()
	repPairs := r.u32()
	distinct := int64(r.u64())
	reserved := r.u64()
	if flags&^uint32(flagsKnown) != 0 {
		return nil, fmt.Errorf("wire: unknown flag bits %#x (corrupt payload or newer writer)", flags&^uint32(flagsKnown))
	}
	star := flags&flagStar != 0
	withReps := flags&flagReplicates != 0
	// Reserved space must be zero: a writer that populated it is newer than
	// this build, and tolerating it would break the one-encoding-per-state
	// property the corruption tests rely on.
	if reserved != 0 {
		return nil, fmt.Errorf("wire: reserved header bytes are not zero (corrupt payload or newer writer)")
	}
	if !withReps && seed != 0 {
		return nil, fmt.Errorf("wire: header declares a bootstrap seed without the replicates flag")
	}

	if k < 1 || k > MaxDim {
		return nil, fmt.Errorf("wire: header declares %d categories, valid range is 1…%d", k, MaxDim)
	}
	if withReps {
		if bB < 1 || bB > MaxDim {
			return nil, fmt.Errorf("wire: header declares %d bootstrap replicates, valid range is 1…%d", bB, MaxDim)
		}
	} else if bB != 0 || repPairs != 0 {
		return nil, fmt.Errorf("wire: header declares B=%d and %d replicate pairs without the replicates flag", bB, repPairs)
	}
	// Both pair tables are over unordered category pairs, so k·(k−1)/2 is a
	// hard cap (k ≤ 1<<24 keeps the product far from overflow).
	maxPairs := uint64(k) * uint64(k-1) / 2
	if uint64(sumsPairs) > maxPairs {
		return nil, fmt.Errorf("wire: header declares %d pair entries, at most %d exist over %d categories", sumsPairs, maxPairs, k)
	}
	if uint64(repPairs) > maxPairs {
		return nil, fmt.Errorf("wire: header declares %d replicate pair entries, at most %d exist over %d categories", repPairs, maxPairs, k)
	}
	want := totalSize(flags, int(k), int(bB), int(sumsPairs), int(repPairs))
	if len(data) != want {
		return nil, fmt.Errorf("wire: payload is %d bytes, header-described layout is %d", len(data), want)
	}

	st := &stream.State{
		K:        int(k),
		Star:     star,
		Gen:      gen,
		Distinct: distinct,
		Sums:     core.NewSums(int(k), star),
	}

	// Section A.
	s := st.Sums
	s.Draws = r.f64()
	s.TotalRew = r.f64()
	s.RewSq = r.f64()
	s.DegNum = r.f64()
	st.Psi1 = r.f64()
	st.PsiInv = r.f64()
	st.Collisions = r.f64()
	if math.Float64bits(r.f64()) != 0 {
		return nil, fmt.Errorf("wire: reserved scalar slot is not zero (corrupt payload or newer writer)")
	}

	// Section B.
	for _, arr := range catArrays(s) {
		r.f64s(arr)
	}

	// Section C.
	prevA, prevB := int32(-1), int32(-1)
	for i := 0; i < int(sumsPairs); i++ {
		a, b := int32(r.u32()), int32(r.u32())
		if err := checkPair(a, b, prevA, prevB, int32(k), "pair"); err != nil {
			return nil, err
		}
		s.PairNum.Set(a, b, r.f64())
		prevA, prevB = a, b
	}

	// Section D.
	if withReps {
		raw := &uncert.RawReplicates{
			K:    int(k),
			Star: star,
			Cfg:  uncert.Config{B: int(bB), Seed: seed},
		}
		scalars, grids := repVectors(raw)
		for _, v := range scalars {
			*v = make([]float64, bB)
			r.f64s(*v)
		}
		for _, g := range grids {
			*g = make([]float64, int(k)*int(bB))
			r.f64s(*g)
		}
		raw.Pairs = make(map[[2]int32][]float64, repPairs)
		prevA, prevB = -1, -1
		for i := 0; i < int(repPairs); i++ {
			a, b := int32(r.u32()), int32(r.u32())
			if err := checkPair(a, b, prevA, prevB, int32(k), "replicate pair"); err != nil {
				return nil, err
			}
			v := make([]float64, bB)
			r.f64s(v)
			raw.Pairs[[2]int32{a, b}] = v
			prevA, prevB = a, b
		}
		reps, err := uncert.NewReplicatesFromRaw(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
		st.Reps = reps
	}

	if err := r.err(); err != nil || r.off != len(data) {
		// totalSize fixed the length: a layout bug, not input.
		panic(fmt.Sprintf("wire: decoded %d of %d bytes (%v)", r.off, len(data), err))
	}
	return st, nil
}

// totalSize computes the exact encoded size from the header-declared
// dimensions. All callers have bounded k ≤ 1<<24, b ≤ 1<<24, and pair counts
// ≤ k²/2, so every term fits comfortably in an int64 even on the maximum
// header; the result only ever meets in-memory buffers.
func totalSize(flags uint32, k, b, sumsPairs, repPairs int) int {
	catArrays := 5
	repScalars := 6
	repGrids := 5
	if flags&flagStar != 0 {
		catArrays = 7
		repScalars = 7
		repGrids = 7
	}
	size := headerSize +
		8*8 + // section A
		catArrays*k*8 + // section B
		sumsPairs*(4+4+8) // section C
	if flags&flagReplicates != 0 {
		size += repScalars*b*8 + repGrids*k*b*8 + repPairs*(4+4+b*8)
	}
	return size
}

// catArrays lists the per-category arrays of section B in wire order.
func catArrays(s *core.Sums) [][]float64 {
	arrs := [][]float64{s.Rew, s.DrawsA, s.Rew2, s.RewSqA, s.WithinNum}
	if s.Star {
		arrs = append(arrs, s.DegNumA, s.NbrNum)
	}
	return arrs
}

// repVectors lists section D's replicate scalar vectors (B floats each) and
// per-category grids (k·B floats each) in wire order.
func repVectors(raw *uncert.RawReplicates) (scalars, grids []*[]float64) {
	scalars = []*[]float64{&raw.Draws, &raw.TotalRew, &raw.RewSq, &raw.Psi1, &raw.PsiInv, &raw.Coll}
	grids = []*[]float64{&raw.Rew, &raw.DrawsA, &raw.Rew2, &raw.RewSqA, &raw.WithinNum}
	if raw.Star {
		scalars = append(scalars, &raw.DegNum)
		grids = append(grids, &raw.DegNumA, &raw.NbrNum)
	}
	return scalars, grids
}

// checkPair enforces the canonical pair-table form: 0 ≤ a < b < k, entries
// strictly increasing by (a, b). Canonical form is what makes the encoding
// of a given state unique (and therefore fuzz-checkable as a bijection).
func checkPair(a, b, prevA, prevB, k int32, what string) error {
	if a < 0 || b <= a || b >= k {
		return fmt.Errorf("wire: %s table entry {%d,%d} is not canonical for %d categories", what, a, b, k)
	}
	if a < prevA || (a == prevA && b <= prevB) {
		return fmt.Errorf("wire: %s table entry {%d,%d} out of order after {%d,%d}", what, a, b, prevA, prevB)
	}
	return nil
}

func sortPairs(ps []pairEntry) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].a != ps[j].a {
			return ps[i].a < ps[j].a
		}
		return ps[i].b < ps[j].b
	})
}
