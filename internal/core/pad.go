package core

import "sync/atomic"

// Cache-line-padded atomic counters for the shared state that survives the
// thread-local ingest refactor. The epoch-merge design moves almost all
// per-record work into writer-private accumulators, but a handful of
// process-visible counters remain genuinely shared (the ingest generation,
// the distinct-node count). Packing several such hot atomics into one struct
// would put them on the same cache line, and every writer's RMW would then
// invalidate the line for all the others — false sharing that reintroduces
// exactly the cross-core coordination the refactor removes. Each padded
// counter therefore owns its line: 64 bytes of leading and trailing padding
// around the atomic (64 is the line size of every platform this repository
// targets; on larger-line hardware the cost is a few wasted bytes, not
// correctness).

// PaddedUint64 is an atomic uint64 alone on its cache line.
type PaddedUint64 struct {
	_ [64]byte
	v atomic.Uint64
	_ [56]byte
}

// Load atomically loads the value.
func (p *PaddedUint64) Load() uint64 { return p.v.Load() }

// Store atomically stores v.
func (p *PaddedUint64) Store(v uint64) { p.v.Store(v) }

// Add atomically adds delta and returns the new value.
func (p *PaddedUint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

// PaddedInt64 is an atomic int64 alone on its cache line.
type PaddedInt64 struct {
	_ [64]byte
	v atomic.Int64
	_ [56]byte
}

// Load atomically loads the value.
func (p *PaddedInt64) Load() int64 { return p.v.Load() }

// Add atomically adds delta and returns the new value.
func (p *PaddedInt64) Add(delta int64) int64 { return p.v.Add(delta) }
