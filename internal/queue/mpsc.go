// Package queue implements the lock-free multi-producer single-consumer
// event queue that decouples Dimmunix's avoidance instrumentation from the
// monitor thread (§3, Figure 1: "async event queue, lock-free").
//
// The design is Vyukov's intrusive MPSC queue: producers publish with a
// single atomic exchange (wait-free for producers among themselves); the
// single consumer follows next pointers. Events enqueued by the same
// producer are FIFO with respect to each other — exactly the partial order
// §5.2 requires: a release event on L in Ti appears before any later
// acquired event on L in Tj because the producer-side happens-before edge
// (unlock in Ti ≺ lock completes in Tj) orders the two exchanges.
//
// With batched publication (event.BatchSize) a producer's
// per-thread events travel inside Batch carrier events. Per-thread order
// is preserved because a thread's buffer publishes while holding the
// buffer's mutex — a monitor-side flush (Cache.FlushBuffers) that steals
// the buffer serializes with the owner's in-progress append/publish, so
// two batches from the same thread can never reach the Push exchange out
// of order, and a directly-emitted event (Yield/Cancel/exit) always
// flushes the buffer first, keeping the §5.2 edge above intact.
package queue

import (
	"sync"
	"sync/atomic"
)

type node[T any] struct {
	next atomic.Pointer[node[T]]
	val  T
}

// MPSC is a multi-producer single-consumer unbounded FIFO queue.
// Push may be called from any goroutine; Pop and Drain must be called from
// a single consumer goroutine at a time. The zero value is not ready for
// use; call New.
//
// Nodes are recycled through a sync.Pool: once the consumer advances past
// the old tail, no producer can reference it (producers only ever touch
// the head), so steady-state event emission allocates nothing.
type MPSC[T any] struct {
	head atomic.Pointer[node[T]] // producers swap this
	tail *node[T]                // consumer-owned
	len  atomic.Int64
	pool sync.Pool
}

// New returns an empty queue.
func New[T any]() *MPSC[T] {
	q := &MPSC[T]{}
	q.pool.New = func() any { return new(node[T]) }
	stub := &node[T]{}
	q.head.Store(stub)
	q.tail = stub
	return q
}

// Push enqueues v. Safe for concurrent use by any number of producers.
func (q *MPSC[T]) Push(v T) {
	n := q.pool.Get().(*node[T])
	n.next.Store(nil)
	n.val = v
	prev := q.head.Swap(n)
	// Between the Swap and this Store the queue is momentarily
	// disconnected; the consumer observes next == nil and treats the
	// queue as empty until the link is published. No events are lost.
	prev.next.Store(n)
	q.len.Add(1)
}

// Pop dequeues one value. Returns the zero value and false when the queue
// is (observably) empty. Must only be called by the single consumer.
func (q *MPSC[T]) Pop() (T, bool) {
	tail := q.tail
	next := tail.next.Load()
	if next == nil {
		var zero T
		return zero, false
	}
	q.tail = next
	v := next.val
	var zero T
	next.val = zero // release reference for GC
	q.len.Add(-1)
	// The old tail is unreachable now: producers only reference nodes
	// obtained from the head swap, and this one left the head position
	// the moment its successor was pushed. Recycle it.
	tail.next.Store(nil)
	q.pool.Put(tail)
	return v, true
}

// Drain dequeues every currently observable element, calling fn on each,
// and returns the number drained. Must only be called by the consumer.
func (q *MPSC[T]) Drain(fn func(T)) int {
	n := 0
	for {
		v, ok := q.Pop()
		if !ok {
			return n
		}
		fn(v)
		n++
	}
}

// Len returns an approximate number of enqueued elements. It may
// transiently disagree with reality while producers are mid-publish.
func (q *MPSC[T]) Len() int {
	n := q.len.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the consumer would currently observe an empty
// queue.
func (q *MPSC[T]) Empty() bool {
	return q.tail.next.Load() == nil
}
