package dimmunix

import (
	"context"
	"errors"
	"sync"
	"time"

	"dimmunix/internal/core"
)

// RWMutex is a drop-in, deadlock-immune replacement for sync.RWMutex.
// The zero value is ready to use and binds to the process-wide default
// Runtime on first use, like Mutex.
//
// The writer path runs the full §5.4 avoidance protocol; the reader path
// runs the same request protocol and its holds join the avoidance
// structures as shared ("reader-held") edges, so reader call sites
// participate in deadlock signatures — a scenario class beyond the
// original paper. Writers are preferred over new readers, but a thread
// that already holds a read lock is granted recursive read acquisition
// even while a writer waits (removing sync.RWMutex's recursive-RLock
// deadlock).
//
// A RWMutex must not be copied after first use.
type RWMutex struct {
	b binder[*core.RWMutex]
}

// Core exposes the underlying explicit-runtime RWMutex (binding it
// first if needed), for interop with explicit Thread handles.
func (rw *RWMutex) Core() *CoreRWMutex { return rw.b.core((*Runtime).NewRWMutex) }

// Lock write-locks, running the full avoidance protocol. It panics only
// if a deadlock-recovery abort unwinds this thread's wait; the panic
// value is the error itself, so a supervisor can recover() and test
// errors.Is(v.(error), ErrDeadlockRecovered).
func (rw *RWMutex) Lock() {
	must(rw.b.do((*Runtime).NewRWMutex, (*core.RWMutex).Lock))
}

// Unlock write-unlocks. It panics if the lock is not write-locked,
// matching sync.RWMutex. Like sync, a write-locked RWMutex may be handed
// off and unlocked by a different goroutine.
func (rw *RWMutex) Unlock() {
	c, ok := rw.b.bound()
	if !ok {
		panic("dimmunix: Unlock of unlocked RWMutex")
	}
	if err := c.UnlockHandoff(); err != nil {
		if errors.Is(err, ErrNotOwner) {
			panic("dimmunix: Unlock of unlocked RWMutex")
		}
		panic("dimmunix: RWMutex.Unlock: " + err.Error())
	}
}

// RLock read-locks. The acquisition participates in the avoidance
// protocol; the hold is shared with other readers.
func (rw *RWMutex) RLock() {
	must(rw.b.do((*Runtime).NewRWMutex, (*core.RWMutex).RLock))
}

// RUnlock releases one read lock held by the calling goroutine. It
// panics if the calling goroutine holds no read lock.
func (rw *RWMutex) RUnlock() {
	c, ok := rw.b.bound()
	if !ok {
		panic("dimmunix: RUnlock of unlocked RWMutex")
	}
	if err := c.RUnlock(); err != nil {
		panic("dimmunix: RUnlock: " + err.Error())
	}
}

// TryLock attempts the write lock without blocking; a YIELD avoidance
// decision counts as failure.
//
//go:noinline
func (rw *RWMutex) TryLock() (ok bool) {
	must(rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) (err error) {
		ok, err = c.TryLock()
		return err
	}))
	return ok
}

// TryRLock attempts a read lock without blocking.
//
//go:noinline
func (rw *RWMutex) TryRLock() (ok bool) {
	must(rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) (err error) {
		ok, err = c.TryRLock()
		return err
	}))
	return ok
}

// LockCtx write-locks, giving up when ctx fires (returning ctx.Err())
// or when a deadlock-recovery abort unwinds the wait (returning
// ErrDeadlockRecovered).
//
//go:noinline
func (rw *RWMutex) LockCtx(ctx context.Context) error {
	return rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) error { return c.LockCtx(ctx) })
}

// RLockCtx read-locks with the same cancellation behavior as LockCtx.
//
//go:noinline
func (rw *RWMutex) RLockCtx(ctx context.Context) error {
	return rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) error { return c.RLockCtx(ctx) })
}

// LockTimeout write-locks, failing with ErrTimeout after d.
//
//go:noinline
func (rw *RWMutex) LockTimeout(d time.Duration) error {
	return rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) error { return c.LockTimeout(d) })
}

// RLockTimeout read-locks, failing with ErrTimeout after d.
//
//go:noinline
func (rw *RWMutex) RLockTimeout(d time.Duration) error {
	return rw.b.do((*Runtime).NewRWMutex, func(c *core.RWMutex) error { return c.RLockTimeout(d) })
}

// RLocker returns a sync.Locker whose Lock and Unlock call RLock and
// RUnlock, like sync.RWMutex.RLocker.
func (rw *RWMutex) RLocker() sync.Locker { return (*rlocker)(rw) }

type rlocker RWMutex

func (r *rlocker) Lock()   { (*RWMutex)(r).RLock() }
func (r *rlocker) Unlock() { (*RWMutex)(r).RUnlock() }
