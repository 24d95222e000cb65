package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/sample"
	"repro/internal/stream"
	"repro/internal/uncert"
)

// FuzzDecode drives arbitrary bytes through Decode. The invariants: Decode
// never panics or reads out of bounds, and any input it accepts is in the
// image of Encode — re-encoding the decoded state reproduces the input
// byte for byte (the codec is a bijection between states and canonical
// encodings, which is what makes corruption detectable at all).
func FuzzDecode(f *testing.F) {
	seed := func(star bool, boot uncert.Config) []byte {
		const k = 4
		acc, err := stream.NewAccumulator(stream.Config{K: k, Star: star, Replicates: boot})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			var rec = starRecord(int32(i%12), k)
			if !star {
				rec = inducedRecord(int32(i%12), k)
			}
			if err := acc.Ingest(rec); err != nil {
				f.Fatal(err)
			}
		}
		st, err := acc.Export()
		if err != nil {
			f.Fatal(err)
		}
		enc, err := Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}

	starBoot := seed(true, uncert.Config{B: 6, Seed: 9})
	f.Add(starBoot)
	f.Add(seed(true, uncert.Config{}))
	f.Add(seed(false, uncert.Config{B: 4, Seed: 1}))
	f.Add(starBoot[:headerSize])
	f.Add(starBoot[:len(starBoot)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	mut := append([]byte(nil), starBoot...)
	binary.LittleEndian.PutUint32(mut[8:], 2) // future version
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(st)
		if err != nil {
			t.Fatalf("Decode accepted input Encode rejects: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d-byte input re-encodes to different %d bytes", len(data), len(re))
		}
	})
}

// FuzzDecodeRecords drives arbitrary bytes through the TOPOREC1 decoder.
// Same invariants as FuzzDecode: no panics or out-of-bounds reads, and any
// accepted input is in the image of EncodeRecords — the decoded batch
// re-encodes byte for byte. Canonical-form enforcement (star/peer sections
// present iff nonempty, exact frame length) is what makes this a bijection.
func FuzzDecodeRecords(f *testing.F) {
	full := recBatch()
	enc, err := EncodeRecords(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	empty, err := EncodeRecords(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	one, err := EncodeRecords(full[:1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	f.Add(enc[:recHeaderSize])
	f.Add(enc[:len(enc)/2])
	f.Add([]byte(recMagic))
	f.Add([]byte{})
	mut := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(mut[8:], 2) // future version
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return
		}
		re, err := EncodeRecords(recs)
		if err != nil {
			t.Fatalf("DecodeRecords accepted input EncodeRecords rejects: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d-byte input re-encodes to different %d bytes", len(data), len(re))
		}
	})
}

// FuzzDecodeCheckpoint holds TOPOCKP1 to the bijection FuzzDecode holds
// TOPOSUM1 to: any frame DecodeCheckpoint accepts re-encodes to exactly the
// bytes it consumed. Mutations are re-sealed with a fresh CRC, as in
// FuzzRestoreCheckpoint, so they reach the payload parser.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, cfg := range []stream.Config{
		{K: 4, Star: true, Replicates: uncert.Config{B: 3, Seed: 2}},
		{K: 4, Star: false},
	} {
		acc, err := stream.NewAccumulator(cfg)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			rec := starRecord(int32(i%9), cfg.K)
			if !cfg.Star {
				rec = inducedRecord(int32(i%9), cfg.K)
			}
			if err := acc.Ingest(rec); err != nil {
				f.Fatal(err)
			}
		}
		fs, err := acc.ExportFull()
		if err != nil {
			f.Fatal(err)
		}
		frame, err := EncodeCheckpoint(&Checkpoint{Name: "fuzz", Config: []byte(`{"k":4}`), Gen: fs.State.Gen, State: fs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(append(frame, frame[:ckpHeaderSize+5]...)) // a torn second frame
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= ckpHeaderSize {
			data = append([]byte(nil), data...)
			end := min(len(data), ckpHeaderSize+int(binary.LittleEndian.Uint32(data[12:16])))
			binary.LittleEndian.PutUint32(data[16:20], crc32.ChecksumIEEE(data[ckpHeaderSize:end]))
		}
		cp, n, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		re, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("DecodeCheckpoint accepted a frame EncodeCheckpoint rejects: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted %d-byte frame re-encodes to different %d bytes", n, len(re))
		}
	})
}

// FuzzRestoreCheckpoint drives arbitrary bytes through the whole resume
// path: DecodeCheckpoint, RestoreAccumulator under the configuration the
// state declares, then one re-draw of every restored node. A star frame
// also resumes on the epoch path: RestoreEpochAccumulator, one re-draw of
// every node through a Local and one through EpochAccumulator.Ingest, then
// a Snapshot. Any step may reject its input with an error; none may panic.
// A checkpoint that decodes is not thereby consistent — its node directory
// can name peers that do not exist or do not list each other back — so
// restore must catch what the codec cannot.
func FuzzRestoreCheckpoint(f *testing.F) {
	seed := func(star bool, boot uncert.Config) []byte {
		const k = 4
		acc, err := stream.NewAccumulator(stream.Config{K: k, Star: star, Replicates: boot})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			var rec = starRecord(int32(i%9), k)
			if !star {
				rec = inducedRecord(int32(i%9), k)
			}
			if err := acc.Ingest(rec); err != nil {
				f.Fatal(err)
			}
		}
		fs, err := acc.ExportFull()
		if err != nil {
			f.Fatal(err)
		}
		frame, err := EncodeCheckpoint(&Checkpoint{Name: "fuzz", Gen: fs.State.Gen, State: fs})
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add(seed(true, uncert.Config{B: 3, Seed: 2}))
	f.Add(seed(true, uncert.Config{}))
	f.Add(seed(false, uncert.Config{B: 5, Seed: 7}))
	f.Add(seed(false, uncert.Config{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A mutated payload almost never matches the frame's checksum;
		// re-seal it so the mutations reach the decoder and restore.
		if len(data) >= ckpHeaderSize {
			data = append([]byte(nil), data...)
			end := min(len(data), ckpHeaderSize+int(binary.LittleEndian.Uint32(data[12:16])))
			binary.LittleEndian.PutUint32(data[16:20], crc32.ChecksumIEEE(data[ckpHeaderSize:end]))
		}
		cp, _, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		st := cp.State.State
		cfg := stream.Config{K: st.K, Star: st.Star}
		if st.Reps != nil {
			cfg.Replicates = st.Reps.Config()
		}
		if acc, err := stream.RestoreAccumulator(cfg, cp.State); err == nil {
			for _, nr := range cp.State.Nodes {
				_ = acc.Ingest(sample.NodeObservation{Node: nr.Node, Cat: nr.Cat})
			}
		}
		if !st.Star {
			return
		}
		ea, err := stream.RestoreEpochAccumulator(cfg, 0, cp.State)
		if err != nil {
			return
		}
		l := ea.NewLocal()
		for _, nr := range cp.State.Nodes {
			rec := sample.NodeObservation{Node: nr.Node, Cat: nr.Cat}
			_ = l.Ingest(rec)
			_, _ = ea.IngestBatch([]sample.NodeObservation{rec})
		}
		l.Flush()
		_, _ = ea.Snapshot()
	})
}
