package wire

// The codec core shared by TOPOSUM1, TOPOCKP1 and TOPOREC1: the frame
// prefix, the CRC seal and verify, a bounds-checked reader, a pre-sized
// writer, and the neighbour- and peer-list codecs.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// MaxDim bounds the category count k and the bootstrap replicate count B a
// state may declare. Headers are checked against it before any size
// arithmetic, and k, B ≤ 1<<24 keeps every product in this package well
// under 1<<63. A job whose k or B exceeds it could never be encoded.
const MaxDim = 1 << 24

// List entry sizes: a neighbour is (cat i32, cnt f64), a peer is (i32).
const (
	nbrSize  = 4 + 8
	peerSize = 4
)

// format describes one frame prefix: an 8-byte magic, a u32 version in
// 1…version, and — for the CRC-framed formats, where lenAt > 0 — a u32
// payload length at lenAt and the CRC-32 (IEEE) of the payload at crcAt.
// The payload starts at header. noun names the format in errors.
type format struct {
	noun         string
	magic        string
	version      uint32
	header       int
	lenAt, crcAt int
}

// putPrefix writes the magic and the version this build emits.
func (f *format) putPrefix(buf []byte) {
	copy(buf[0:8], f.magic)
	binary.LittleEndian.PutUint32(buf[8:12], f.version)
}

// check validates the prefix of data: a whole header, the magic, and a
// version this build reads.
func (f *format) check(data []byte) error {
	if len(data) < f.header {
		return fmt.Errorf("wire: truncated %s: %d bytes, need at least the %d-byte header", f.noun, len(data), f.header)
	}
	if string(data[0:8]) != f.magic {
		return fmt.Errorf("wire: bad magic %q: not a %s", data[0:8], f.noun)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v == 0 || v > f.version {
		return fmt.Errorf("wire: %s has codec version %d; this build decodes versions 1…%d (upgrade this process or downgrade the sender)", f.noun, v, f.version)
	}
	return nil
}

// frame allocates a CRC frame for an n-byte payload with its prefix and
// length written. A payload the u32 length field cannot describe is
// rejected before anything is allocated.
func (f *format) frame(n int) ([]byte, error) {
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: %s payload of %d bytes exceeds the frame's 32-bit length field", f.noun, n)
	}
	buf := make([]byte, f.header+n)
	f.putPrefix(buf)
	binary.LittleEndian.PutUint32(buf[f.lenAt:], uint32(n))
	return buf, nil
}

// seal finishes an encoding: it checks that w filled exactly the size its
// encoder computed, stores the payload CRC of a CRC-framed format, and
// returns the bytes.
func (f *format) seal(w *writer) []byte {
	if w.off != len(w.buf) {
		// Layout arithmetic and emission disagree — a codec bug, not input.
		panic(fmt.Sprintf("wire: encoded %d bytes into a %d-byte %s layout", w.off, len(w.buf), f.noun))
	}
	if f.lenAt > 0 {
		binary.LittleEndian.PutUint32(w.buf[f.crcAt:], crc32.ChecksumIEEE(w.buf[f.header:]))
	}
	return w.buf
}

// payload verifies the prefix, length and CRC of the frame at the start of
// data and returns its payload. data may run on past the frame.
func (f *format) payload(data []byte) ([]byte, error) {
	if err := f.check(data); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(data[f.lenAt:])
	if avail := len(data) - f.header; uint64(avail) < uint64(n) {
		return nil, fmt.Errorf("wire: truncated %s: frame declares %d payload bytes, %d available", f.noun, n, avail)
	}
	p := data[f.header : f.header+int(n)]
	if got, want := crc32.ChecksumIEEE(p), binary.LittleEndian.Uint32(data[f.crcAt:]); got != want {
		return nil, fmt.Errorf("wire: %s checksum mismatch (stored %#x, computed %#x)", f.noun, want, got)
	}
	return p, nil
}

// reader consumes little-endian fields from buf. Every read is
// bounds-checked: the first one that runs past the end is recorded, and it
// and every later read return zero values, so a decoder reads straight
// through and asks err once. err is built only when asked for, which keeps
// the fixed-width reads small enough to inline on the ingest hot path.
type reader struct {
	buf  []byte
	off  int
	noun string

	// short is the field of the first short read ("" while none failed),
	// need its size and at the offset it started from.
	short string
	need  uint64
	at    int
}

// take returns the next n bytes, or nil once the buffer cannot supply them.
func (r *reader) take(n uint64, field string) []byte {
	if n > uint64(len(r.buf)-r.off) {
		if r.short == "" {
			r.short, r.need, r.at = field, n, r.off
		}
		r.off = len(r.buf)
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

// err reports the first short read: "truncated <noun> reading <field>".
func (r *reader) err() error {
	if r.short == "" {
		return nil
	}
	return fmt.Errorf("wire: truncated %s reading %s (%d bytes left, need %d)", r.noun, r.short, len(r.buf)-r.at, r.need)
}

func (r *reader) u8() byte {
	if b := r.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes reads a length-prefixed byte string (u32 length, then the bytes).
func (r *reader) bytes(field string) []byte { return r.take(uint64(r.u32()), field) }

// f64s fills dst from the next len(dst) floats.
func (r *reader) f64s(dst []float64) {
	b := r.take(8*uint64(len(dst)), "float section")
	for i := 0; len(b) >= 8; i, b = i+1, b[8:] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// nbrs reads a neighbour list — count u32, then count × (cat i32, cnt f64)
// — appending it to cat and cnt. An empty list leaves nil slices nil.
func (r *reader) nbrs(cat []int32, cnt []float64) ([]int32, []float64) {
	b := r.take(uint64(r.u32())*nbrSize, "neighbor list")
	cat, cnt = slices.Grow(cat, len(b)/nbrSize), slices.Grow(cnt, len(b)/nbrSize)
	for ; len(b) >= nbrSize; b = b[nbrSize:] {
		cat = append(cat, int32(binary.LittleEndian.Uint32(b)))
		cnt = append(cnt, math.Float64frombits(binary.LittleEndian.Uint64(b[4:])))
	}
	return cat, cnt
}

// peers reads a peer list — count u32, then count × (peer i32) — appending
// it to dst. An empty list leaves a nil dst nil.
func (r *reader) peers(dst []int32) []int32 {
	b := r.take(uint64(r.u32())*peerSize, "peer list")
	dst = slices.Grow(dst, len(b)/peerSize)
	for ; len(b) >= peerSize; b = b[peerSize:] {
		dst = append(dst, int32(binary.LittleEndian.Uint32(b)))
	}
	return dst
}

// writer appends fixed-width values into a buffer its encoder sized
// exactly; an overrun or a shortfall is a codec bug and panics (see seal).
type writer struct {
	buf []byte
	off int
}

func (w *writer) u8(v byte) {
	w.buf[w.off] = v
	w.off++
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[w.off:], v)
	w.off += 4
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[w.off:], v)
	w.off += 8
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

// bytes writes a length-prefixed byte string.
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.off += copy(w.buf[w.off:], v)
}

// f64s writes exactly n floats; a nil src (legal for an all-zero section,
// e.g. star arrays of a fresh accumulator) writes n zeros.
func (w *writer) f64s(n int, src []float64) {
	if src != nil && len(src) != n {
		panic(fmt.Sprintf("wire: section of %d floats, want %d", len(src), n))
	}
	if src == nil {
		w.off += 8 * n // the buffer is freshly allocated, hence zero
		return
	}
	for _, v := range src {
		w.f64(v)
	}
}

// nbrs writes a neighbour list in the layout reader.nbrs reads.
func (w *writer) nbrs(cat []int32, cnt []float64) {
	w.u32(uint32(len(cat)))
	for j := range cat {
		w.u32(uint32(cat[j]))
		w.f64(cnt[j])
	}
}

// peers writes a peer list in the layout reader.peers reads.
func (w *writer) peers(p []int32) {
	w.u32(uint32(len(p)))
	for _, v := range p {
		w.u32(uint32(v))
	}
}
