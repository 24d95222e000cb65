package wire

import (
	"math"
	"strings"
	"testing"
)

// TestFrameLengthBound pins the shared seal's 32-bit bound: a CRC frame
// refuses a payload its u32 length field cannot describe, judged on the
// declared length before anything is allocated, so a checkpoint over 4 GiB
// fails to encode instead of being written with a wrapped length.
func TestFrameLengthBound(t *testing.T) {
	for _, f := range []format{ckpFormat, recFormat} {
		if _, err := f.frame(math.MaxUint32 + 1); err == nil || !strings.Contains(err.Error(), "32-bit") {
			t.Errorf("%s: frame(2^32) err = %v, want the 32-bit length bound", f.noun, err)
		}
		buf, err := f.frame(3)
		if err != nil {
			t.Fatalf("%s: frame(3): %v", f.noun, err)
		}
		p, err := f.payload(f.seal(&writer{buf: buf, off: len(buf)}))
		if err != nil || len(p) != 3 {
			t.Fatalf("%s: sealed 3-byte frame reads back %d bytes, err %v", f.noun, len(p), err)
		}
	}
}

// TestReaderSticky pins the reader contract the decoders rely on: the first
// short read is the reported error, and it and every later read return zero.
func TestReaderSticky(t *testing.T) {
	r := reader{buf: []byte{1, 0, 0, 0, 2, 0}, noun: "test payload"}
	if v := r.u32(); v != 1 || r.err() != nil {
		t.Fatalf("first u32 = %d, err %v", v, r.err())
	}
	if v := r.u64(); v != 0 {
		t.Fatalf("short u64 = %d, want 0", v)
	}
	if v := r.u8(); v != 0 {
		t.Fatalf("u8 after a short read = %d, want 0", v)
	}
	if b := r.peers(nil); b != nil {
		t.Fatalf("peer list after a short read = %v, want nil", b)
	}
	err := r.err()
	if err == nil || !strings.Contains(err.Error(), "truncated test payload reading u64 (2 bytes left, need 8)") {
		t.Fatalf("err = %v, want the first short read", err)
	}
}
