// Package event defines the events exchanged between the avoidance
// instrumentation and the monitor thread (§3: request, go, yield, acquired,
// release; §6 adds cancel for pthreads trylock/timedlock rollback).
//
// Per-thread events (request/go/acquired/release) travel batched: a thread
// accumulates them as compact Records in a Buffer and publishes one Batch
// event per BatchSize records instead of one queue push per operation. Events
// whose payload doesn't fit the Record format — yield (causes), cancel,
// thread-exit — are emitted directly; the avoidance layer flushes the
// thread's buffer before emitting them, so per-thread FIFO order through
// the queue is preserved. The monitor flushes every thread's buffer at the
// top of each pass, so batching delays detection by at most one τ.
package event

import (
	"sync"

	"dimmunix/internal/stack"
)

// Kind enumerates event types.
type Kind uint8

const (
	// Request: a thread entered the lock instrumentation and asked for a
	// decision.
	Request Kind = iota
	// Go: the avoidance code allowed the thread to block waiting for the
	// lock (the "allow" edge was committed).
	Go
	// Yield: the thread was forced to yield; Causes carries the matched
	// signature instance.
	Yield
	// Acquired: the thread finished lock() and now holds the lock.
	Acquired
	// Release: the thread is about to unlock().
	Release
	// Cancel: a previously allowed request was rolled back (trylock
	// failure, lock timeout, or deadlock-recovery abort).
	Cancel
	// ThreadExit: the thread is gone; the monitor prunes its RAG node.
	ThreadExit
	// Batch: a carrier event holding buffered bookkeeping Records for one
	// thread (Recs). The monitor unpacks it in order; Batch itself never
	// reaches the RAG.
	Batch
)

var kindNames = [...]string{"request", "go", "yield", "acquired", "release", "cancel", "thread-exit", "batch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Cause identifies one (thread, lock, stack) binding of a matched signature
// instance — the target of a yield edge plus its label (§5.4). SigIdx is
// the index of the signature stack the binding covers, so the monitor can
// re-evaluate the match at other depths during calibration.
type Cause struct {
	TID    int32
	LID    uint64
	Stack  *stack.Interned
	SigIdx int
}

// Event is one instrumentation event. Stack is the interned call stack the
// thread had at the time (nil for Release/Cancel/ThreadExit where the
// monitor already knows the edge). SigID is set on Yield events to the
// signature that triggered avoidance, for false-positive bookkeeping.
type Event struct {
	Kind       Kind
	TID        int32
	LID        uint64
	Stack      *stack.Interned
	Causes     []Cause   // Yield only
	SigID      string    // Yield only
	YielderIdx int       // Yield only: signature stack index covered by TID
	Depth      int       // Yield only: matching depth in force
	Recs       *[]Record // Batch only: pooled record slab (PutRecs when done)
}

// Record is one buffered bookkeeping operation inside a Batch event. The
// thread identity travels once on the carrier Event, not per record.
type Record struct {
	Kind  Kind
	LID   uint64
	Stack *stack.Interned
}

// recsPool recycles record slabs between producers (lock paths) and the
// consumer (monitor drain). Slabs round-trip as *[]Record so neither side
// boxes a slice header per batch.
var recsPool = sync.Pool{New: func() any {
	rs := make([]Record, 0, BatchSize)
	return &rs
}}

// GetRecs returns an empty pooled record slab.
func GetRecs() *[]Record { return recsPool.Get().(*[]Record) }

// PutRecs clears a slab (dropping its stack pointers) and returns it to the
// pool. Call after unpacking a Batch event.
func PutRecs(rs *[]Record) {
	clear(*rs)
	*rs = (*rs)[:0]
	recsPool.Put(rs)
}

// BatchSize is the per-thread publication batch size: the number of
// records a Buffer accumulates before publishing them as one Batch event.
const BatchSize = 64

// Buffer accumulates one thread's bookkeeping records and publishes them as
// Batch events. The mutex makes Add/Flush safe against the monitor's
// steal-at-pass flush; publication happens while the mutex is held, so a
// thread's batches enter the MPSC queue in the order its records were
// added, even when the monitor flushes concurrently.
type Buffer struct {
	mu   sync.Mutex
	recs *[]Record
}

// Add appends one record and publishes a Batch event once max records have
// accumulated.
func (b *Buffer) Add(tid int32, r Record, max int, emit func(Event)) {
	b.mu.Lock()
	if b.recs == nil {
		b.recs = GetRecs()
	}
	*b.recs = append(*b.recs, r)
	if len(*b.recs) >= max {
		recs := b.recs
		b.recs = nil
		emit(Event{Kind: Batch, TID: tid, Recs: recs})
	}
	b.mu.Unlock()
}

// ElideRelease tries to cancel a pending release against its own
// acquisition: when the newest buffered record is Acquired for the same
// lock, that record is popped and true is returned — the pair never
// reaches the monitor. The caller must ensure the pair is "lonely" (the
// thread holds nothing else), so no lock-nesting evidence is destroyed:
// any intervening record breaks adjacency, and an enclosing hold fails
// the caller's loneliness check. Such pairs are invisible to deadlock
// detection by construction — both records would have been applied
// within one queue drain, before any detection pass could snapshot the
// transient edge — and a live hold's Acquired record stays stealable in
// the buffer until the release actually happens, so this elides only
// bookkeeping that could never alter monitor state.
func (b *Buffer) ElideRelease(lid uint64) bool {
	b.mu.Lock()
	if b.recs != nil {
		if rs := *b.recs; len(rs) > 0 {
			if last := rs[len(rs)-1]; last.Kind == Acquired && last.LID == lid {
				rs[len(rs)-1] = Record{} // drop the stack reference
				*b.recs = rs[:len(rs)-1]
				b.mu.Unlock()
				return true
			}
		}
	}
	b.mu.Unlock()
	return false
}

// Flush publishes any buffered records immediately. Safe to call from any
// goroutine (the monitor steals buffers this way at every pass).
func (b *Buffer) Flush(tid int32, emit func(Event)) {
	b.mu.Lock()
	if b.recs != nil && len(*b.recs) > 0 {
		recs := b.recs
		b.recs = nil
		emit(Event{Kind: Batch, TID: tid, Recs: recs})
	}
	b.mu.Unlock()
}
