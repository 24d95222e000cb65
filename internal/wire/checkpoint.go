package wire

// Durable checkpoint frames. A checkpoint wraps a job's complete resumable
// state — the TOPOSUM1 payload (sums, collision scalars, replicates,
// generation) plus the node directory that Export omits — in a framed,
// CRC-guarded container that is safe to APPEND to a file: a crash can only
// damage the final frame, and LastCheckpoint recovers the newest frame whose
// checksum and content both verify, ignoring any torn tail.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	     0     8  magic "TOPOCKP1"
//	     8     4  version (currently 1)
//	    12     4  payloadLen (bytes after the 24-byte frame header)
//	    16     4  crc32 (IEEE) of the payload
//	    20     4  reserved (zero)
//	    24     …  payload
//
// Payload layout:
//
//	gen      u64   ingest generation at the cut (mirrors the inner state's
//	               Gen so scanners can order frames without a full decode)
//	nameLen  u32   + name bytes (the job name; 1…255 bytes)
//	cfgLen   u32   + config bytes (opaque to this codec — the job layer
//	               stores its serialized spec here; may be empty)
//	stateLen u32   + a complete TOPOSUM1 encoding (see Encode)
//	nodes    u32   node directory entries, ascending by node id:
//	    node i32, cat i32, mult f64, weight f64,
//	    flags u8 (bit0 = starSeen), deg f64,
//	    nbrs u32 + nbrs × (cat i32, cnt f64),
//	    peers u32 + peers × (peer i32)
//
// Canonical form (see the package doc): node records ascend and star lists
// travel in their stored (already canonical) order, so checkpoint → restore
// → checkpoint reproduces the frame byte for byte.
import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/stream"
)

const (
	// CheckpointVersion is the frame version this build writes and the
	// newest it reads.
	CheckpointVersion = 1

	ckpMagic      = "TOPOCKP1"
	ckpHeaderSize = 24

	// maxCheckpointName bounds the job-name field; names are
	// filename-safe short identifiers at the job layer.
	maxCheckpointName = 255

	ckpFlagStarSeen = 1 << 0

	// ckpNodeMinSize is the smallest node record: node, cat, mult, weight,
	// flags, deg and both list counts. It bounds the declared node count.
	ckpNodeMinSize = 4 + 4 + 8 + 8 + 1 + 8 + 4 + 4
)

var ckpFormat = format{noun: "checkpoint frame", magic: ckpMagic, version: CheckpointVersion, header: ckpHeaderSize, lenAt: 12, crcAt: 16}

// Checkpoint is one durable frame: a named job's complete resumable state
// plus its opaque serialized configuration.
type Checkpoint struct {
	// Name identifies the job the state belongs to (1…255 bytes).
	Name string
	// Config is the job layer's serialized spec, carried opaquely so a
	// restart can verify it restores under a compatible configuration.
	Config []byte
	// Gen is the ingest generation at the cut; it always equals
	// State.State.Gen and exists in the frame for cheap ordering scans.
	Gen uint64
	// State is the complete resumable state (see stream.FullState).
	State *stream.FullState
}

// EncodeCheckpoint serializes one frame.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil || cp.State == nil {
		return nil, fmt.Errorf("wire: cannot encode a nil checkpoint")
	}
	if len(cp.Name) < 1 || len(cp.Name) > maxCheckpointName {
		return nil, fmt.Errorf("wire: checkpoint name must be 1…%d bytes, got %d", maxCheckpointName, len(cp.Name))
	}
	if cp.Gen != cp.State.State.Gen {
		return nil, fmt.Errorf("wire: checkpoint gen %d disagrees with its state's gen %d", cp.Gen, cp.State.State.Gen)
	}
	stateBytes, err := Encode(cp.State.State)
	if err != nil {
		return nil, err
	}

	payload := 8 + 4 + len(cp.Name) + 4 + len(cp.Config) + 4 + len(stateBytes) + 4
	for i := range cp.State.Nodes {
		nr := &cp.State.Nodes[i]
		payload += ckpNodeMinSize + len(nr.NbrCat)*nbrSize + len(nr.Peers)*peerSize
	}
	buf, err := ckpFormat.frame(payload)
	if err != nil {
		return nil, err
	}
	w := writer{buf: buf, off: ckpHeaderSize}
	w.u64(cp.Gen)
	w.bytes([]byte(cp.Name))
	w.bytes(cp.Config)
	w.bytes(stateBytes)
	w.u32(uint32(len(cp.State.Nodes)))
	prev := int64(math.MinInt64)
	for i := range cp.State.Nodes {
		nr := &cp.State.Nodes[i]
		if int64(nr.Node) <= prev {
			return nil, fmt.Errorf("wire: checkpoint node records out of order at node %d", nr.Node)
		}
		prev = int64(nr.Node)
		if len(nr.NbrCat) != len(nr.NbrCnt) {
			return nil, fmt.Errorf("wire: checkpoint node %d has %d neighbor categories but %d counts", nr.Node, len(nr.NbrCat), len(nr.NbrCnt))
		}
		w.u32(uint32(nr.Node))
		w.u32(uint32(nr.Cat))
		w.f64(nr.Mult)
		w.f64(nr.Weight)
		var flags byte
		if nr.StarSeen {
			flags |= ckpFlagStarSeen
		}
		w.u8(flags)
		w.f64(nr.Deg)
		w.nbrs(nr.NbrCat, nr.NbrCnt)
		w.peers(nr.Peers)
	}
	return ckpFormat.seal(&w), nil
}

// AppendCheckpoint encodes cp and writes the frame to w — the append-only
// checkpoint-file discipline. It returns the frame size in bytes.
//
// Durability contract: AppendCheckpoint only writes; it is the caller's job
// to make the frame survive a crash. That takes two fsyncs, not one — the
// file must be fsynced after the write (or the frame can be lost), and when
// the write is the one that CREATED the file, the containing directory must
// be fsynced too, or a crash immediately after job creation can lose the
// file itself: the frame is durable but unreachable, because the directory
// entry pointing at it never hit disk. The job layer does both (see
// Job.Checkpoint); CompactCheckpoints honors the same contract when it
// replaces the file.
func AppendCheckpoint(w io.Writer, cp *Checkpoint) (int, error) {
	buf, err := EncodeCheckpoint(cp)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	if err != nil {
		return n, fmt.Errorf("wire: checkpoint write: %w", err)
	}
	return n, nil
}

// DecodeCheckpoint parses the frame at the start of data, returning the
// checkpoint and the number of bytes it consumed (so callers can walk an
// appended sequence). Truncation, checksum mismatch and malformed content
// all error without reading past data.
func DecodeCheckpoint(data []byte) (*Checkpoint, int, error) {
	payload, err := ckpFormat.payload(data)
	if err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(data[20:24]) != 0 {
		return nil, 0, fmt.Errorf("wire: reserved checkpoint header bytes are not zero")
	}
	r := reader{buf: payload, noun: "checkpoint payload"}
	gen := r.u64()
	name := r.bytes("name")
	config := r.bytes("config")
	stateBytes := r.bytes("state")
	count := r.u32()
	if err := r.err(); err != nil {
		return nil, 0, err
	}
	if len(name) < 1 || len(name) > maxCheckpointName {
		return nil, 0, fmt.Errorf("wire: checkpoint name length %d outside 1…%d", len(name), maxCheckpointName)
	}
	st, err := Decode(stateBytes)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: checkpoint state: %w", err)
	}
	if st.Gen != gen {
		return nil, 0, fmt.Errorf("wire: checkpoint frame gen %d disagrees with its state's gen %d", gen, st.Gen)
	}
	// Bound the count by the remaining payload so a corrupt header cannot
	// drive the allocation.
	if left := len(payload) - r.off; uint64(count)*ckpNodeMinSize > uint64(left) {
		return nil, 0, fmt.Errorf("wire: checkpoint declares %d node records in %d remaining bytes", count, left)
	}
	nodes := make([]stream.NodeRecord, count)
	prev := int64(math.MinInt64)
	for i := range nodes {
		nr := &nodes[i]
		nr.Node = int32(r.u32())
		nr.Cat = int32(r.u32())
		nr.Mult = r.f64()
		nr.Weight = r.f64()
		flags := r.u8()
		nr.StarSeen = flags&ckpFlagStarSeen != 0
		nr.Deg = r.f64()
		nr.NbrCat, nr.NbrCnt = r.nbrs(nil, nil)
		nr.Peers = r.peers(nil)
		if err := r.err(); err != nil {
			return nil, 0, err
		}
		if flags&^byte(ckpFlagStarSeen) != 0 {
			return nil, 0, fmt.Errorf("wire: checkpoint node %d has unknown flag bits %#x", nr.Node, flags)
		}
		if int64(nr.Node) <= prev {
			return nil, 0, fmt.Errorf("wire: checkpoint node records out of order at node %d", nr.Node)
		}
		prev = int64(nr.Node)
	}
	if left := len(payload) - r.off; left != 0 {
		return nil, 0, fmt.Errorf("wire: checkpoint frame has %d trailing payload bytes", left)
	}
	return &Checkpoint{
		Name:   string(name),
		Config: append([]byte(nil), config...),
		Gen:    gen,
		State:  &stream.FullState{State: st, Nodes: nodes},
	}, ckpHeaderSize + len(payload), nil
}

// LastCheckpoint walks an appended frame sequence and returns the LAST frame
// that fully verifies (magic, checksum, content), plus the number of
// trailing bytes it ignored — a torn final frame from a crash mid-append,
// or garbage. It never fails: an empty or wholly unreadable file returns
// (nil, len(data)), which restores as a clean empty state.
func LastCheckpoint(data []byte) (*Checkpoint, int) {
	last, _, tail := ScanCheckpoints(data)
	return last, tail
}

// ScanCheckpoints is LastCheckpoint plus the frame count: the last fully
// verifying frame, how many intact frames precede and include it, and the
// trailing bytes ignored after it. The count is what compaction policies
// key on (a file holds frames-1 superseded frames).
func ScanCheckpoints(data []byte) (last *Checkpoint, frames, tail int) {
	last, _, frames, end := scanFrames(data)
	return last, frames, len(data) - end
}

// scanFrames walks data's intact prefix of frames. It returns the last
// intact frame and the offset it starts at, the frame count, and the offset
// where the intact prefix ends. Frames after a damaged one are unreachable
// (frame boundaries are only known by walking), so everything from end on
// is tail.
func scanFrames(data []byte) (last *Checkpoint, start, frames, end int) {
	for end < len(data) {
		cp, n, err := DecodeCheckpoint(data[end:])
		if err != nil {
			break
		}
		last, start = cp, end
		frames++
		end += n
	}
	return last, start, frames, end
}

// CompactCheckpoints rewrites the checkpoint file at path so it holds only
// its newest intact frame, dropping every superseded frame and any torn
// tail. The rewrite is atomic and durable: the surviving frame's exact
// bytes go to a temporary file in the same directory, which is fsynced,
// renamed over path, and followed by a directory fsync — a crash at any
// instant leaves either the old file or the compacted one, never a mix.
// Files that are already one intact frame with no tail, or that contain no
// intact frame at all (recovery's problem, not compaction's), are left
// untouched. It returns how many superseded frames were dropped.
//
// Callers holding an open O_APPEND handle on path MUST close it before
// compacting and reopen afterwards: the rename leaves such a handle
// pointing at the replaced inode, and frames appended through it would be
// silently lost.
func CompactCheckpoints(path string) (dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wire: compact checkpoints: %w", err)
	}
	_, start, frames, end := scanFrames(data)
	if frames == 0 || (frames == 1 && end == len(data)) {
		return 0, nil
	}

	tmp := path + ".compact"
	err = writeSynced(tmp, data[start:end])
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("wire: compact checkpoints: %w", err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("wire: compact checkpoints: %w", err)
	}
	return frames - 1, nil
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making previously created, renamed or removed
// directory entries durable — the second half of the AppendCheckpoint
// durability contract.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wire: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wire: sync dir %q: %w", dir, err)
	}
	return nil
}
