package dimmunix

import (
	"context"
	"errors"
	"sync/atomic"

	"dimmunix/internal/core"
)

// Cond is a drop-in, deadlock-immune replacement for sync.Cond, bound
// to a dimmunix.Mutex:
//
//	var mu dimmunix.Mutex
//	cond := dimmunix.NewCond(&mu)
//
//	mu.Lock()
//	for !ready {
//		cond.Wait()
//	}
//	...
//	mu.Unlock()
//
// Semantics are Mesa-style, like sync.Cond: Wait may wake spuriously,
// so callers loop on their predicate. The §6-relevant difference from
// sync.Cond is that Wait's release and re-acquisition of the associated
// mutex flow through the full §5.4 avoidance protocol — a deadlock
// formed through a cond-wait re-acquisition is detected, archived, and
// avoided on later runs exactly like one formed through plain Lock.
//
// Like Mutex, Cond is generation-aware: after a Shutdown→Init of the
// default runtime, the next Wait rebinds to the fresh runtime (the
// superseded binding's parked waiters are woken spuriously; they
// re-acquire through the rebound mutex, re-check their predicate, and
// re-register — correct under Mesa semantics).
//
// A Cond must not be copied after first use.
type Cond struct {
	// L is the associated drop-in mutex; it must be held when calling
	// Wait or WaitCtx.
	L *Mutex

	b atomic.Pointer[condBinding]
}

// condBinding pairs a core condition variable with the core mutex
// instance it was built over; a rebind of the mutex (Shutdown→Init)
// makes the pairing stale and the next Wait re-creates it.
type condBinding struct {
	cm *core.Mutex
	c  *core.Cond
}

// NewCond returns a condition variable bound to l, like sync.NewCond.
func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// core returns the condition variable over the mutex's current binding,
// (re)creating it when the mutex was bound or rebound since.
func (c *Cond) core() *core.Cond {
	cm := c.L.Core() // binds / rebinds the mutex itself first
	for {
		b := c.b.Load()
		if b != nil && b.cm == cm {
			return b.c
		}
		nb := &condBinding{cm: cm, c: core.NewCond(cm)}
		if c.b.CompareAndSwap(b, nb) {
			if b != nil {
				// Wake waiters parked on the superseded binding: they
				// surface as spurious wakeups, re-acquire through the
				// rebound mutex, and re-register on the fresh binding.
				b.c.Broadcast()
			}
			return nb.c
		}
	}
}

// Wait atomically releases c.L, suspends the calling goroutine until a
// Signal/Broadcast (or a spurious wakeup), and re-acquires c.L through
// the avoidance protocol before returning. Unlike sync.Cond.Wait it can
// be unwound by deadlock recovery: if a recovery hook aborts this
// thread's re-acquisition, Wait panics with ErrDeadlockRecovered (the
// in-process restart), exactly like Mutex.Lock. Use WaitCtx to observe
// recovery or cancellation as an error instead.
//
// The wait walks its caller's call site before parking, completely (see
// core.Site.BoundComplete), for the re-acquisition. After a rebind the
// walk belongs to the superseded runtime, so the re-acquisition through
// the rebound mutex captures from inside the lock path instead.
//
//go:noinline
func (c *Cond) Wait() {
	var s core.Site
	cc := c.core()
	s.Walk(s.BoundComplete(cc.L))
	err := core.CondWait(cc, &s)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrMutexRetired):
		// The binding was superseded mid-wait (Shutdown→Init). The
		// re-acquisition bounced; take the mutex through the facade
		// (which rebinds) and surface a spurious wakeup.
		must(c.L.b.do(c.L.b.core((*Runtime).NewMutex), (*Runtime).NewMutex, func(m *core.Mutex) error { return core.MutexLock(m, &s) }))
	default:
		panic(err)
	}
}

// WaitCtx is Wait with cancellation and recovery as errors. When ctx
// fires first, the mutex is still re-acquired (the caller's unlock
// discipline holds) and ctx.Err() is returned. When deadlock recovery
// unwinds the re-acquisition, ErrDeadlockRecovered is returned and the
// mutex is NOT held — the caller abandons its critical section, the
// in-process analog of the paper's restart (§3).
//
//go:noinline
func (c *Cond) WaitCtx(ctx context.Context) error {
	var s core.Site
	cc := c.core()
	s.Walk(s.BoundComplete(cc.L))
	err := core.CondWaitCtx(cc, &s, ctx)
	if errors.Is(err, core.ErrMutexRetired) {
		// Superseded mid-wait; reacquire through the facade and report
		// a spurious wakeup (nil), unless ctx fired too.
		return c.L.b.do(c.L.b.core((*Runtime).NewMutex), (*Runtime).NewMutex, func(m *core.Mutex) error { return core.MutexLockCtx(m, &s, ctx) })
	}
	return err
}

// Signal wakes one goroutine waiting on c, if any. As with sync.Cond,
// the caller may but need not hold c.L.
func (c *Cond) Signal() {
	if b := c.b.Load(); b != nil {
		b.c.Signal()
	}
}

// Broadcast wakes all goroutines waiting on c.
func (c *Cond) Broadcast() {
	if b := c.b.Load(); b != nil {
		b.c.Broadcast()
	}
}
