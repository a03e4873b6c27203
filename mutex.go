package dimmunix

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"dimmunix/internal/core"
)

// Mutex is a drop-in, deadlock-immune replacement for sync.Mutex. The
// zero value is ready to use:
//
//	var mu dimmunix.Mutex
//	mu.Lock()
//	defer mu.Unlock()
//
// On first Lock the mutex binds itself to the process-wide default
// Runtime (see Init / Default), registering its lock state lazily; from
// then on every acquisition runs the paper's §5.4 avoidance protocol.
// The sync-shaped methods have no error returns and panic on misuse,
// exactly like sync.Mutex; Mutex satisfies sync.Locker.
//
// Like sync.Mutex (and unlike it only in mechanism), a locked Mutex may
// be handed off and unlocked by a different goroutine. If a recovery
// hook (WithAbortRecovery) unwinds a deadlock victim blocked in plain
// Lock, that Lock panics with ErrDeadlockRecovered — the in-process
// restart. Paths that want recovery, timeout, or cancellation as an
// error use LockCtx / LockTimeout instead.
//
// A Mutex must not be copied after first use.
type Mutex struct {
	b binder[*core.Mutex]
}

// binder is the generation-aware slot behind every drop-in lock: it
// holds the instrumented core lock together with the default-runtime
// generation it was bound under, binds on first use, and rebinds after a
// Shutdown→Init transition once the old lock is observed free. L is
// *core.Mutex or *core.RWMutex.
type binder[L interface{ Retire() bool }] struct {
	p atomic.Pointer[binding[L]]
}

type binding[L any] struct {
	c   L
	gen uint64
}

// bound returns the lock of the binding in place, if there is one — the
// unlock paths, which always go through the binding that granted the
// lock even when a Shutdown has made it stale.
func (b *binder[L]) bound() (L, bool) {
	if cur := b.p.Load(); cur != nil {
		return cur.c, true
	}
	var none L
	return none, false
}

// core returns the bound instrumented lock, binding to the default
// Runtime on first use and rebinding (to a lock made by newLock) when the
// binding's runtime was replaced and the lock is free.
func (b *binder[L]) core(newLock func(*Runtime) L) L {
	old := b.p.Load()
	for {
		if old != nil {
			if old.gen == generation() {
				// Current (or a racing rebind or Init already refreshed it).
				return old.c
			}
			if !old.c.Retire() {
				// Still held, or an acquisition is in flight, through
				// the previous runtime: the holder must unlock what it
				// locked. Keep the old binding; a later operation
				// rebinds once the lock is observed free. (Retirement
				// is atomic with granting, so a straggler that is
				// granted the lock after we retire bounces with
				// ErrMutexRetired and re-resolves.)
				return old.c
			}
		}
		// Read the generation around Default() so a lazily created
		// runtime (which bumps the generation) never yields a binding
		// stamped stale at birth.
		gen := generation()
		rt := Default()
		if generation() == gen {
			nb := &binding[L]{c: newLock(rt), gen: gen}
			if b.p.CompareAndSwap(old, nb) {
				return nb.c
			}
		}
		old = b.p.Load()
	}
}

// do runs op on c, the lock bound when the entry point walked its call
// site, and on the freshly bound lock until op stops failing with
// ErrMutexRetired: the binding was superseded mid-operation by a
// Shutdown→Init rebind, and the next attempt re-resolves the fresh
// instance via core. Shared by every facade acquisition method.
//
// Every acquisition method walks its caller's call site in its own body
// (core.Site) before do, and hands do a closure. A retry runs under the
// fresh runtime, which does not classify a walk bounded by another
// runtime's view and captures from inside instead. The methods are marked
// noinline for two reasons. The walk reaches the application's frame by a
// fixed number of frame-pointer hops from the entry point's own frame
// (core.Site.Walk), which an entry point inlined into the application
// would not have. And that capture must strip the closure: a closure of a
// function inlined into application code is compiled under the
// application function's name, which call-site stripping
// (core.isRuntimeFrame) could not tell from the application.
func (b *binder[L]) do(c L, newLock func(*Runtime) L, op func(L) error) error {
	for {
		err := op(c)
		if !errors.Is(err, core.ErrMutexRetired) {
			return err
		}
		c = b.core(newLock)
	}
}

// Core exposes the underlying explicit-runtime mutex (binding it first
// if needed), for interop with explicit Thread handles and Cond.
func (m *Mutex) Core() *CoreMutex { return m.b.core((*Runtime).NewMutex) }

// must panics on an acquisition error the sync-shaped signatures cannot
// return. The panic value is the error itself, so a supervisor can
// recover() and test errors.Is(v.(error), ErrDeadlockRecovered).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Lock acquires the mutex, running the full avoidance protocol. It
// blocks like sync.Mutex.Lock and panics only if a deadlock-recovery
// abort unwinds this thread's wait; the panic value is the error itself,
// so a supervisor can recover() and test errors.Is(v.(error),
// ErrDeadlockRecovered) to treat it as the in-process restart.
//
//go:noinline
func (m *Mutex) Lock() {
	var s core.Site
	c := m.b.core((*Runtime).NewMutex)
	s.Walk(s.Bound(c))
	must(m.b.do(c, (*Runtime).NewMutex, func(c *core.Mutex) error { return core.MutexLock(c, &s) }))
}

// Unlock releases the mutex. It panics if the mutex is not locked,
// matching sync.Mutex. Unlock always goes through the binding that
// granted the lock, even when a Shutdown has made it stale.
func (m *Mutex) Unlock() {
	c, ok := m.b.bound()
	if !ok {
		panic("dimmunix: Unlock of unlocked Mutex")
	}
	if err := c.UnlockHandoff(); err != nil {
		if errors.Is(err, ErrNotOwner) {
			panic("dimmunix: Unlock of unlocked Mutex")
		}
		panic("dimmunix: Unlock: " + err.Error())
	}
}

// TryLock attempts the lock without blocking, like sync.Mutex.TryLock.
// A YIELD avoidance decision counts as failure: the thread may not enter
// a known-dangerous pattern.
//
//go:noinline
func (m *Mutex) TryLock() (ok bool) {
	var s core.Site
	c := m.b.core((*Runtime).NewMutex)
	s.Walk(s.Bound(c))
	must(m.b.do(c, (*Runtime).NewMutex, func(c *core.Mutex) (err error) {
		ok, err = core.MutexTryLock(c, &s)
		return err
	}))
	return ok
}

// LockCtx acquires the mutex, giving up when ctx is canceled or its
// deadline passes (returning ctx.Err()) or when a deadlock-recovery
// abort unwinds the wait (returning ErrDeadlockRecovered).
//
//go:noinline
func (m *Mutex) LockCtx(ctx context.Context) error {
	var s core.Site
	c := m.b.core((*Runtime).NewMutex)
	s.Walk(s.Bound(c))
	return m.b.do(c, (*Runtime).NewMutex, func(c *core.Mutex) error { return core.MutexLockCtx(c, &s, ctx) })
}

// LockTimeout acquires the mutex, failing with ErrTimeout after d.
//
//go:noinline
func (m *Mutex) LockTimeout(d time.Duration) error {
	var s core.Site
	c := m.b.core((*Runtime).NewMutex)
	s.Walk(s.Bound(c))
	return m.b.do(c, (*Runtime).NewMutex, func(c *core.Mutex) error { return core.MutexLockTimeout(c, &s, d) })
}
