package wire

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

func ckpObs(i int) sample.NodeObservation {
	node := int32(i % 23)
	c := node % 4
	obs := sample.NodeObservation{Node: node, Cat: c, Weight: 1 + float64(node%5)/8}
	if i%3 != 0 {
		obs.Deg = float64(2 + node%6)
		obs.NbrCat = []int32{(c + 1) % 4}
		obs.NbrCnt = []float64{2}
	}
	return obs
}

func buildCheckpoint(t *testing.T, name string, records int) (*Checkpoint, stream.Config) {
	t.Helper()
	cfg := stream.Config{K: 4, Star: true, Replicates: uncert.Config{B: 16, Seed: 5}}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := acc.Ingest(ckpObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		Name:   name,
		Config: []byte(`{"k":4,"star":true}`),
		Gen:    fs.State.Gen,
		State:  fs,
	}, cfg
}

// TestCheckpointRoundTrip pins Decode∘Encode as the identity on checkpoints,
// and the byte-stability invariant the append-only file format relies on:
// checkpoint → restore → checkpoint reproduces the frame byte for byte.
func TestCheckpointRoundTrip(t *testing.T) {
	cp, cfg := buildCheckpoint(t, "alpha", 90)
	frame, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	if got.Name != cp.Name || got.Gen != cp.Gen || !bytes.Equal(got.Config, cp.Config) {
		t.Fatalf("frame fields round-tripped to %q/%d", got.Name, got.Gen)
	}

	acc, err := stream.RestoreAccumulator(cfg, got.State)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := EncodeCheckpoint(&Checkpoint{Name: cp.Name, Config: cp.Config, Gen: fs2.State.Gen, State: fs2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatalf("checkpoint → restore → checkpoint is not byte-stable (%d vs %d bytes)", len(frame), len(frame2))
	}
}

// TestCheckpointRoundTripInduced covers the induced-scenario node payload
// (peer lists, no star data, no replicates).
func TestCheckpointRoundTripInduced(t *testing.T) {
	cfg := stream.Config{K: 3, Star: false}
	acc, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := []sample.NodeObservation{
		{Node: 1, Cat: 0},
		{Node: 2, Cat: 1, Peers: []int32{1}},
		{Node: 3, Cat: 2, Peers: []int32{1, 2}},
		{Node: 1, Cat: 0, Peers: []int32{3}},
	}
	for _, r := range recs {
		if err := acc.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := acc.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeCheckpoint(&Checkpoint{Name: "induced", Gen: fs.State.Gen, State: fs})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := stream.RestoreAccumulator(cfg, got.State)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := restored.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := EncodeCheckpoint(&Checkpoint{Name: "induced", Gen: fs2.State.Gen, State: fs2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatal("induced checkpoint is not byte-stable through restore")
	}
}

// TestLastCheckpointRecovery is the crash-safety contract of the append-only
// checkpoint file: whatever happens to the final frame — truncated at any
// byte, checksum corrupted, or the whole file empty/garbage — LastCheckpoint
// returns the newest frame that still verifies, never an error.
func TestLastCheckpointRecovery(t *testing.T) {
	var file []byte
	var frames [][]byte
	for gens := 30; gens <= 90; gens += 30 {
		cp, _ := buildCheckpoint(t, "alpha", gens)
		frame, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		file = append(file, frame...)
	}

	t.Run("intact", func(t *testing.T) {
		cp, tail := LastCheckpoint(file)
		if cp == nil || cp.Gen != 90 || tail != 0 {
			t.Fatalf("got gen %v, tail %d; want 90, 0", cp, tail)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if cp, tail := LastCheckpoint(nil); cp != nil || tail != 0 {
			t.Fatalf("empty file: got %v, tail %d", cp, tail)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		junk := bytes.Repeat([]byte{0xa5}, 300)
		if cp, tail := LastCheckpoint(junk); cp != nil || tail != len(junk) {
			t.Fatalf("garbage file: got %v, tail %d", cp, tail)
		}
	})
	t.Run("truncated-final-frame", func(t *testing.T) {
		prefix := len(file) - len(frames[2])
		for _, cut := range []int{1, ckpHeaderSize - 1, ckpHeaderSize, ckpHeaderSize + 7, len(frames[2]) / 2, len(frames[2]) - 1} {
			trunc := file[:prefix+cut]
			cp, tail := LastCheckpoint(trunc)
			if cp == nil || cp.Gen != 60 {
				t.Fatalf("cut at %d: recovered %v, want the gen-60 frame", cut, cp)
			}
			if tail != cut {
				t.Fatalf("cut at %d: ignored tail %d", cut, tail)
			}
		}
	})
	t.Run("corrupt-crc", func(t *testing.T) {
		bad := append([]byte(nil), file...)
		bad[len(bad)-10] ^= 0xff // flip a payload byte inside the final frame
		cp, tail := LastCheckpoint(bad)
		if cp == nil || cp.Gen != 60 {
			t.Fatalf("recovered %v, want the gen-60 frame", cp)
		}
		if tail != len(frames[2]) {
			t.Fatalf("ignored tail %d, want the whole %d-byte final frame", tail, len(frames[2]))
		}
	})
	t.Run("corrupt-header-crc-field", func(t *testing.T) {
		bad := append([]byte(nil), file...)
		off := len(file) - len(frames[2]) + 16
		bad[off] ^= 0x01
		if cp, _ := LastCheckpoint(bad); cp == nil || cp.Gen != 60 {
			t.Fatalf("recovered %v, want the gen-60 frame", cp)
		}
	})
	t.Run("every-truncation-point", func(t *testing.T) {
		// Property: for ANY prefix of the file, recovery yields exactly the
		// frames wholly contained in the prefix — the newest complete one,
		// with the partial remainder counted as tail.
		bounds := []int{len(frames[0]), len(frames[0]) + len(frames[1]), len(file)}
		for cut := 0; cut <= len(file); cut += 97 {
			cp, tail := LastCheckpoint(file[:cut])
			whole := 0
			var wantGen uint64
			for i, b := range bounds {
				if cut >= b {
					whole = b
					wantGen = uint64(30 * (i + 1))
				}
			}
			if tail != cut-whole {
				t.Fatalf("cut %d: tail %d, want %d", cut, tail, cut-whole)
			}
			if whole == 0 {
				if cp != nil {
					t.Fatalf("cut %d: unexpected frame %v", cut, cp)
				}
			} else if cp == nil || cp.Gen != wantGen {
				t.Fatalf("cut %d: recovered %v, want gen %d", cut, cp, wantGen)
			}
		}
	})
}

// TestCheckpointValidation rejects malformed frames outright.
func TestCheckpointValidation(t *testing.T) {
	cp, _ := buildCheckpoint(t, "alpha", 20)
	frame, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), frame...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"bad-magic":    mut(func(b []byte) { b[0] = 'X' }),
		"bad-version":  mut(func(b []byte) { b[8] = 99 }),
		"reserved-set": mut(func(b []byte) { b[20] = 1 }),
		"short-header": frame[:ckpHeaderSize-2],
	}
	for name, data := range cases {
		if _, _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
	if _, err := EncodeCheckpoint(&Checkpoint{Name: "", Gen: cp.Gen, State: cp.State}); err == nil {
		t.Error("encode accepted an empty name")
	}
	if _, err := EncodeCheckpoint(&Checkpoint{Name: "x", Gen: cp.Gen + 1, State: cp.State}); err == nil {
		t.Error("encode accepted gen disagreeing with the state")
	}
}

// TestCompactCheckpoints pins the compaction contract: the file is rewritten
// to exactly the bytes of its newest intact frame (torn tail and superseded
// frames dropped), already-compact files are untouched, and files with no
// intact frame are left for recovery rather than destroyed.
func TestCompactCheckpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alpha.ckpt")

	var file []byte
	var frames [][]byte
	for _, records := range []int{30, 60, 90} {
		cp, _ := buildCheckpoint(t, "alpha", records)
		frame, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		file = append(file, frame...)
	}
	// A torn tail, as a crash mid-append would leave.
	file = append(file, frames[0][:17]...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, n, tail := ScanCheckpoints(file); n != 3 || tail != 17 {
		t.Fatalf("ScanCheckpoints = %d frames, %d tail; want 3, 17", n, tail)
	}

	dropped, err := CompactCheckpoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d frames, want 2", dropped)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frames[2]) {
		t.Fatalf("compacted file is %d bytes, want the newest frame's exact %d", len(got), len(frames[2]))
	}
	cp, n, tail := ScanCheckpoints(got)
	if n != 1 || tail != 0 || cp == nil {
		t.Fatalf("after compaction: %d frames, %d tail", n, tail)
	}

	// Idempotent: an already-compact file is untouched.
	if dropped, err = CompactCheckpoints(path); err != nil || dropped != 0 {
		t.Fatalf("second compaction: dropped=%d err=%v", dropped, err)
	}

	// No intact frame: leave the file alone (recovery's problem).
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if dropped, err = CompactCheckpoints(garbage); err != nil || dropped != 0 {
		t.Fatalf("garbage compaction: dropped=%d err=%v", dropped, err)
	}
	if got, _ := os.ReadFile(garbage); string(got) != "not a frame" {
		t.Fatalf("compaction rewrote a file with no intact frame: %q", got)
	}

	if _, err := CompactCheckpoints(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("compacting a missing file did not error")
	}
}

// inducedWalk returns n records of a random walk on a random graph over
// 600 nodes in 5 categories: each record lists every neighbor of the drawn
// node observed so far as a peer, so the stream re-draws nodes, re-sends
// known edges and reveals new ones, as an induced crawler does.
func inducedWalk(seed uint64, n int) []sample.NodeObservation {
	const nodes, k = 600, 5
	r := rand.New(rand.NewPCG(seed, 1))
	adj := make([][]int32, nodes)
	for v := 1; v < nodes; v++ {
		for range 1 + r.IntN(5) {
			u := int32(r.IntN(v))
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], int32(v))
		}
	}
	seen := make([]bool, nodes)
	recs := make([]sample.NodeObservation, n)
	v := int32(0)
	for i := range recs {
		rec := sample.NodeObservation{Node: v, Cat: v % k, Weight: float64(len(adj[v]))}
		for _, u := range adj[v] {
			if seen[u] {
				rec.Peers = append(rec.Peers, u)
			}
		}
		seen[v] = true
		recs[i] = rec
		v = adj[v][r.IntN(len(adj[v]))]
	}
	return recs
}

// TestCheckpointResumeInducedBootstrap checkpoints an induced B = 200
// stream at a random cut, restores it from the frame — the restored
// accumulator rebuilds its packed weight rows on demand — and finishes the
// stream. The TOPOSUM1 encoding of the result must equal the uninterrupted
// run's byte for byte.
func TestCheckpointResumeInducedBootstrap(t *testing.T) {
	cfg := stream.Config{K: 5, Star: false, Replicates: uncert.Config{B: 200, Seed: 17}}
	recs := inducedWalk(3, 4000)
	cut := 1 + rand.New(rand.NewPCG(5, 5)).IntN(len(recs)-1)
	ingest := func(acc *stream.Accumulator, recs []sample.NodeObservation) {
		t.Helper()
		if n, err := acc.IngestBatch(recs); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
	}
	encode := func(acc *stream.Accumulator) []byte {
		t.Helper()
		st, err := acc.Export()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	whole, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingest(whole, recs)

	head, err := stream.NewAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingest(head, recs[:cut])
	fs, err := head.ExportFull()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeCheckpoint(&Checkpoint{Name: "induced", Gen: fs.State.Gen, State: fs})
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.RestoreAccumulator(cfg, cp.State)
	if err != nil {
		t.Fatal(err)
	}
	ingest(tail, recs[cut:])
	if !bytes.Equal(encode(whole), encode(tail)) {
		t.Fatalf("resumed at record %d: TOPOSUM1 bytes differ from the uninterrupted run", cut)
	}
}
