package stack

import (
	"slices"
	"sync"
)

// PCCache memoizes the full capture pipeline — symbol resolution,
// runtime-frame stripping, interning — keyed by the raw program-counter
// stack that runtime.Callers records. Raw PC stacks are the Go analog of
// the paper's return-address stacks: after the first occurrence of a call
// path, a lock operation pays one PC walk plus one hash lookup instead of
// a CallersFrames symbolization, which dominates instrumented-lock cost.
//
// Soundness: a PC value identifies one instruction in the immutable text
// segment, and frame expansion (including inlining) is a pure function of
// the PC stack, so equal PC stacks always map to the same *Interned.
//
// That holds for a complete capture, whose entry is valid forever (Get,
// Put). The table also holds depth-bounded keys — only the innermost
// frames of a deeper call path — whose entry carries a representative of
// the paths sharing that prefix and is valid only at the danger-index
// epoch it was recorded at (GetAt, PutAt): the epoch's index says how
// many frames a verdict depends on, a later one may need more than the
// key covers. The two kinds never answer for each other.
//
// An entry may hold a nil stack: its caller refused the key (a walk that
// could not stand for the stack it walked) and records the refusal, so
// that the key is not checked again. A lookup returns it as (nil, true).
type PCCache struct {
	shards [pcShards]pcShard
}

const pcShards = 16

type pcShard struct {
	mu sync.RWMutex
	m  map[uint64][]pcEntry
}

type pcEntry struct {
	pcs   []uintptr
	in    *Interned
	epoch uint64 // 0: complete capture; else the epoch a bounded key is valid at
}

// NewPCCache returns an empty cache.
func NewPCCache() *PCCache {
	c := &PCCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64][]pcEntry)
	}
	return c
}

// HashPCs hashes a raw PC stack (FNV-1a), the table's shard and bucket key.
func HashPCs(pcs []uintptr) uint64 {
	h := uint64(fnvOffset)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= fnvPrime
	}
	return h
}

// Get returns the interned stack previously recorded for the complete
// capture pcs.
func (c *PCCache) Get(pcs []uintptr) (*Interned, bool) {
	return c.lookup(pcs, 0)
}

// GetAt returns the representative stack recorded for the depth-bounded
// key pcs, if it was recorded at epoch (nonzero).
func (c *PCCache) GetAt(pcs []uintptr, epoch uint64) (*Interned, bool) {
	return c.lookup(pcs, epoch)
}

func (c *PCCache) lookup(pcs []uintptr, epoch uint64) (*Interned, bool) {
	h := HashPCs(pcs)
	sh := &c.shards[h%pcShards]
	sh.mu.RLock()
	for _, e := range sh.m[h] {
		if e.epoch == epoch && slices.Equal(e.pcs, pcs) {
			sh.mu.RUnlock()
			return e.in, true
		}
	}
	sh.mu.RUnlock()
	return nil, false
}

// Put records the resolution of the complete capture pcs; the first
// resolution recorded stands. The slice is copied.
func (c *PCCache) Put(pcs []uintptr, in *Interned) {
	c.store(pcs, in, 0)
}

// PutAt records in as the representative of the depth-bounded key pcs at
// epoch (nonzero), replacing in place what an older epoch left under that
// key; epochs only move forward. The slice is copied.
func (c *PCCache) PutAt(pcs []uintptr, in *Interned, epoch uint64) {
	c.store(pcs, in, epoch)
}

func (c *PCCache) store(pcs []uintptr, in *Interned, epoch uint64) {
	h := HashPCs(pcs)
	sh := &c.shards[h%pcShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	es := sh.m[h]
	for i := range es {
		if e := &es[i]; (e.epoch != 0) == (epoch != 0) && slices.Equal(e.pcs, pcs) {
			if epoch > e.epoch { // a complete entry (both 0) stands
				e.in, e.epoch = in, epoch
			}
			return
		}
	}
	sh.m[h] = append(es, pcEntry{pcs: slices.Clone(pcs), in: in, epoch: epoch})
}

// Len returns the number of entries: complete captures plus bounded keys.
func (c *PCCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, es := range sh.m {
			n += len(es)
		}
		sh.mu.RUnlock()
	}
	return n
}
