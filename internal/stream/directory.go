package stream

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// directory is the node directory of both engines: an insert-only table
// from node id to a dense index 0, 1, 2, … in insertion order, holding
// beside each index the node's immutable per-node constants (category and
// sampling weight), plus the engine's mutable per-node state T in dense
// chunks addressed by that index.
//
// The table is open addressing with linear probing over atomic slots. A
// slot is written once — constants first, then its key with one atomic
// store — and never again, so lookup is one probe sequence with no lock
// and no write: a reader that observes a key also observes the constants
// stored before it. Inserts are serialized by mu. The table grows by
// copying into one twice the size, published with one atomic store; a
// reader still probing the superseded table may miss a node inserted after
// the copy and treat it as absent, which every caller already handles as
// "absent at first touch" and re-checks under mu through insert.
//
// The per-node state lives in chunks of dirChunk entries that never move,
// so a *T stays valid for the directory's lifetime; its synchronization is
// the engine's (the accumulator mutex, or the epoch engine's stripe locks).
//
// Memory is linear in the number of distinct nodes for any id set —
// negative, sparse and adversarial ids included: the table grows at a load
// of 7/8 (Go's own map load factor), so past its 16-slot minimum it holds
// at most 16/7 slots of 24 bytes — under 55 bytes — per node, and the
// state at most one partly filled chunk beyond sizeof(T) per node. The
// hash is seeded per directory, so no fixed id set collides the same way
// in every process.
type directory[T any] struct {
	table  atomic.Pointer[[]dirSlot]
	chunks atomic.Pointer[[]*[dirChunk]T]
	n      atomic.Int32
	seed   uint32
	mu     sync.Mutex
}

// dirSlot is one table slot: key is uint32(id)<<32 | index+1, zero while
// the slot is empty; cat and weight are written before key is published.
type dirSlot struct {
	key    atomic.Uint64
	weight float64
	cat    int32
}

// dirEntry is a node's directory entry: its dense index and constants.
type dirEntry struct {
	idx    int32
	cat    int32
	weight float64
}

const (
	dirChunkBits = 8
	dirChunk     = 1 << dirChunkBits
	dirMinSlots  = 16
)

func newDirectory[T any]() *directory[T] {
	d := &directory[T]{seed: rand.Uint32()}
	slots := make([]dirSlot, dirMinSlots)
	d.table.Store(&slots)
	d.chunks.Store(new([]*[dirChunk]T))
	return d
}

// hashID hashes a node id under a seed: a Fibonacci (golden-ratio)
// multiply, keeping the product's bits 32–63, each of which depends on
// every bit of the id.
func hashID(id int32, seed uint32) uint32 {
	return uint32(uint64(uint32(id)^seed) * 0x9e3779b97f4a7c15 >> 32)
}

// lookup returns id's entry, and false (with index -1) when id is absent.
// It takes no lock and writes nothing.
func (d *directory[T]) lookup(id int32) (dirEntry, bool) {
	return d.find(id, hashID(id, d.seed))
}

// find is lookup for a caller that already hashed id with the directory's
// seed.
func (d *directory[T]) find(id int32, h uint32) (dirEntry, bool) {
	slots := *d.table.Load()
	mask := uint32(len(slots) - 1)
	want := uint64(uint32(id)) << 32
	for i := h & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		k := s.key.Load()
		if k == 0 {
			return dirEntry{idx: -1}, false
		}
		if k&^0xffffffff == want {
			return dirEntry{idx: int32(uint32(k)) - 1, cat: s.cat, weight: s.weight}, true
		}
	}
}

// insert adds id under the given constants at the next dense index, unless
// id is already present; it returns id's entry and whether it was added.
// The new index's state is the zero T, and the entry is visible to lookup
// once insert returns.
func (d *directory[T]) insert(id, cat int32, weight float64) (dirEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.lookup(id); ok {
		return e, false
	}
	n := d.n.Load()
	slots := *d.table.Load()
	if 8*(int(n)+1) > 7*len(slots) {
		grown := make([]dirSlot, 2*len(slots))
		for i := range slots {
			if s := &slots[i]; s.key.Load() != 0 {
				d.place(grown, s.key.Load(), s.cat, s.weight)
			}
		}
		slots = grown
		d.table.Store(&grown)
	}
	if n%dirChunk == 0 {
		// Appending in place is safe beside readers: they index only below
		// the length of the slice they loaded.
		chunks := append(*d.chunks.Load(), new([dirChunk]T))
		d.chunks.Store(&chunks)
	}
	d.place(slots, uint64(uint32(id))<<32|uint64(n+1), cat, weight)
	d.n.Store(n + 1)
	return dirEntry{idx: n, cat: cat, weight: weight}, true
}

// place writes key and its constants into the first empty slot of its
// probe sequence, publishing the key last.
func (d *directory[T]) place(slots []dirSlot, key uint64, cat int32, weight float64) {
	mask := uint32(len(slots) - 1)
	i := hashID(int32(key>>32), d.seed) & mask
	for slots[i].key.Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].cat, slots[i].weight = cat, weight
	slots[i].key.Store(key)
}

// len returns the number of nodes inserted so far.
func (d *directory[T]) len() int { return int(d.n.Load()) }

// at returns the state of dense index idx (0 ≤ idx < len).
func (d *directory[T]) at(idx int32) *T {
	return &(*d.chunks.Load())[idx>>dirChunkBits][idx&(dirChunk-1)]
}

// each calls fn with every node's id and entry, in table order.
func (d *directory[T]) each(fn func(id int32, e dirEntry)) {
	slots := *d.table.Load()
	for i := range slots {
		s := &slots[i]
		if k := s.key.Load(); k != 0 {
			fn(int32(k>>32), dirEntry{idx: int32(uint32(k)) - 1, cat: s.cat, weight: s.weight})
		}
	}
}
