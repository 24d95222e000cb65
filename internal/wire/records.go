package wire

// Binary ingest records. TOPOREC1 is the high-rate counterpart of the JSON
// body POST /ingest accepts: one CRC-framed batch of sample.NodeObservation
// values — the draw (node, cat, weight) plus the optional star summary
// (degree, neighbor-category counts, with the same omitted-degree semantics
// as JSON: a zero degree means "derive it from the counts") and the optional
// induced-edge peer list. The codec is a faithful bit-level transport: it
// performs no semantic validation beyond structure (the ingest layer applies
// the same category/weight/star checks to both encodings), so JSON and
// binary deliveries of the same records are indistinguishable downstream.
//
// Frame layout (all integers little-endian, floats IEEE-754 binary64 bits):
//
//	offset  size  field
//	     0     8  magic "TOPOREC1"
//	     8     4  version (currently 1)
//	    12     4  count (records in the batch; 0 is a legal empty batch)
//	    16     4  payloadLen (bytes after the 24-byte frame header)
//	    20     4  crc32 (IEEE) of the payload
//	    24     …  payload: count records, back to back
//
// Record layout:
//
//	node    i32
//	cat     i32   (-1 = uncategorized, as in JSON)
//	weight  f64   (raw bits; 0 means "weight 1 / inherit", as in JSON)
//	flags   u8    bit0 = star section present, bit1 = peer section present
//	[star]  deg f64 (raw bits; 0 = omitted degree), nbrs u32,
//	        nbrs × (cat i32, cnt f64)
//	[peers] n u32, n × (peer i32)
//
// Canonical form (see the package doc): the star section is present iff
// the observation carries star data (nonzero degree bits or a nonempty
// neighbor list) and must itself be nonempty; the peer section is present
// iff the peer list is nonempty; the frame length is exact.
import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sample"
)

const (
	// RecordsVersion is the record-batch frame version this build writes
	// and the newest it decodes.
	RecordsVersion = 1

	// RecordsContentType is the MIME type that selects the binary record
	// batch encoding on POST /ingest (JSON remains the default).
	RecordsContentType = "application/x-topoest-records"

	recMagic      = "TOPOREC1"
	recHeaderSize = 24

	recFlagStar   = 1 << 0
	recFlagPeers  = 1 << 1
	recFlagsKnown = recFlagStar | recFlagPeers

	// recMinSize is the fixed prefix of every record: node, cat, weight,
	// flags. It bounds the header-declared count before the payload walk.
	recMinSize = 4 + 4 + 8 + 1
)

var recFormat = format{noun: "record batch", magic: recMagic, version: RecordsVersion, header: recHeaderSize, lenAt: 16, crcAt: 20}

// EncodeRecords serializes one batch as a TOPOREC1 frame. Records travel
// bit-faithfully (weights and degrees as raw IEEE-754 bits, zero meaning
// the same "omitted" it means in JSON); the only requirement is structural:
// neighbor category and count lists must have equal length. An empty batch
// encodes as a bare frame header.
func EncodeRecords(recs []sample.NodeObservation) ([]byte, error) {
	size := 0
	for i := range recs {
		r := &recs[i]
		if len(r.NbrCat) != len(r.NbrCnt) {
			return nil, fmt.Errorf("wire: record %d has %d neighbor categories but %d counts", i, len(r.NbrCat), len(r.NbrCnt))
		}
		size += recMinSize
		if recordHasStar(r) {
			size += 8 + 4 + len(r.NbrCat)*nbrSize
		}
		if len(r.Peers) > 0 {
			size += 4 + len(r.Peers)*peerSize
		}
	}
	// Every record takes at least recMinSize bytes, so a payload the
	// length field can describe also bounds the u32 count.
	buf, err := recFormat.frame(size)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(recs)))
	w := writer{buf: buf, off: recHeaderSize}
	for i := range recs {
		r := &recs[i]
		w.u32(uint32(r.Node))
		w.u32(uint32(r.Cat))
		w.f64(r.Weight)
		var flags byte
		if recordHasStar(r) {
			flags |= recFlagStar
		}
		if len(r.Peers) > 0 {
			flags |= recFlagPeers
		}
		w.u8(flags)
		if flags&recFlagStar != 0 {
			w.f64(r.Deg)
			w.nbrs(r.NbrCat, r.NbrCnt)
		}
		if flags&recFlagPeers != 0 {
			w.peers(r.Peers)
		}
	}
	return recFormat.seal(&w), nil
}

// recordHasStar reports whether the observation carries star data and
// therefore gets a star section. The test is on raw degree bits, not the
// float value, so -0.0 degrees (which JSON cannot express but the struct
// can) still round-trip bit-exactly.
func recordHasStar(r *sample.NodeObservation) bool {
	return math.Float64bits(r.Deg) != 0 || len(r.NbrCat) > 0
}

// RecordIter decodes a TOPOREC1 frame record by record without allocating
// per record: the slice fields of the record filled by Next alias scratch
// buffers that the following Next call reuses. That is exactly the contract
// stream ingest wants — stream.Local.Ingest and stream.Accumulator.Ingest
// copy any slice they retain — so decode feeds the hot path with zero
// per-record allocations. Callers that keep records past the next call must
// copy the slices (DecodeRecords does).
type RecordIter struct {
	r     reader
	count int
	i     int

	nbrCat []int32
	nbrCnt []float64
	peers  []int32
}

// NewRecordIter validates data as one complete TOPOREC1 frame and returns
// an iterator over its records. See Reset for the validation contract.
func NewRecordIter(data []byte) (*RecordIter, error) {
	it := &RecordIter{}
	if err := it.Reset(data); err != nil {
		return nil, err
	}
	return it, nil
}

// Reset re-points the iterator at a new frame, reusing its scratch buffers.
// The frame is validated completely up front — header, checksum, and a
// structural walk of every record — so a malformed batch is rejected before
// the caller ingests anything (matching JSON ingest, where a body that does
// not parse is refused whole) and Next never fails.
func (it *RecordIter) Reset(data []byte) error {
	it.r, it.count, it.i = reader{}, 0, 0
	payload, err := recFormat.payload(data)
	if err != nil {
		return err
	}
	if len(data) != recHeaderSize+len(payload) {
		return fmt.Errorf("wire: record batch is %d bytes, frame declares %d", len(data), recHeaderSize+len(payload))
	}
	// Each record takes at least recMinSize bytes, so a count the payload
	// cannot hold ends the walk at the first short read.
	count := binary.LittleEndian.Uint32(data[12:16])
	r := reader{buf: payload, noun: recFormat.noun}
	for i := 0; i < int(count) && r.short == ""; i++ {
		if err := walkRecord(&r, i); err != nil {
			return err
		}
	}
	if err := r.err(); err != nil {
		return err
	}
	if r.off != len(payload) {
		return fmt.Errorf("wire: record batch has %d trailing payload bytes", len(payload)-r.off)
	}
	it.r = reader{buf: payload, noun: recFormat.noun}
	it.count = int(count)
	return nil
}

// walkRecord reads past one record, enforcing the canonical-form rules. A
// short read is left for the caller to find in r.
func walkRecord(r *reader, i int) error {
	head := r.take(recMinSize, "record")
	if head == nil {
		return nil
	}
	flags := head[recMinSize-1]
	if flags&^byte(recFlagsKnown) != 0 {
		return fmt.Errorf("wire: record %d has unknown flag bits %#x (corrupt payload or newer writer)", i, flags&^byte(recFlagsKnown))
	}
	if flags&recFlagStar != 0 {
		deg, nbrs := r.u64(), r.u32()
		if deg == 0 && nbrs == 0 && r.short == "" {
			return fmt.Errorf("wire: record %d has an empty star section (non-canonical)", i)
		}
		r.take(uint64(nbrs)*nbrSize, "neighbor list")
	}
	if flags&recFlagPeers != 0 {
		n := r.u32()
		if n == 0 && r.short == "" {
			return fmt.Errorf("wire: record %d has an empty peer section (non-canonical)", i)
		}
		r.take(uint64(n)*peerSize, "peer list")
	}
	return nil
}

// Len returns the number of records in the frame.
func (it *RecordIter) Len() int { return it.count }

// Next decodes the next record into rec, returning false when the frame is
// exhausted. rec's slice fields alias the iterator's scratch and are only
// valid until the next Next or Reset call; absent sections leave them nil,
// exactly as the JSON decoder leaves omitted fields.
func (it *RecordIter) Next(rec *sample.NodeObservation) bool {
	if it.i >= it.count {
		return false
	}
	it.i++
	r := &it.r
	head := r.take(recMinSize, "record") // Reset checked every record
	rec.Node = int32(binary.LittleEndian.Uint32(head))
	rec.Cat = int32(binary.LittleEndian.Uint32(head[4:]))
	rec.Weight = math.Float64frombits(binary.LittleEndian.Uint64(head[8:]))
	flags := head[recMinSize-1]
	rec.Deg = 0
	rec.NbrCat, rec.NbrCnt, rec.Peers = nil, nil, nil
	if flags&recFlagStar != 0 {
		rec.Deg = r.f64()
		it.nbrCat, it.nbrCnt = r.nbrs(it.nbrCat[:0], it.nbrCnt[:0])
		if len(it.nbrCat) > 0 {
			rec.NbrCat, rec.NbrCnt = it.nbrCat, it.nbrCnt
		}
	}
	if flags&recFlagPeers != 0 {
		it.peers = r.peers(it.peers[:0])
		rec.Peers = it.peers
	}
	return true
}

// DecodeRecords materializes a frame as an owned slice — the convenience
// (and fuzz) entry point. Hot paths iterate instead.
func DecodeRecords(data []byte) ([]sample.NodeObservation, error) {
	it, err := NewRecordIter(data)
	if err != nil {
		return nil, err
	}
	recs := make([]sample.NodeObservation, 0, it.Len())
	var rec sample.NodeObservation
	for it.Next(&rec) {
		rec.NbrCat = append([]int32(nil), rec.NbrCat...)
		rec.NbrCnt = append([]float64(nil), rec.NbrCnt...)
		rec.Peers = append([]int32(nil), rec.Peers...)
		recs = append(recs, rec)
	}
	return recs, nil
}
