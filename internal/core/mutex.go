package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// MutexKind mirrors the pthreads mutex types (§6).
type MutexKind uint8

const (
	// Normal self-deadlocks if relocked by its owner (like
	// PTHREAD_MUTEX_NORMAL). Dimmunix does not watch for self-deadlocks.
	Normal MutexKind = iota
	// Recursive may be relocked by its owner (Java monitors,
	// PTHREAD_MUTEX_RECURSIVE).
	Recursive
	// ErrorCheck returns ErrSelfDeadlock if relocked by its owner
	// (PTHREAD_MUTEX_ERRORCHECK).
	ErrorCheck
)

// Errors returned by lock operations.
var (
	// ErrSelfDeadlock is the EDEADLK analog for ErrorCheck mutexes.
	ErrSelfDeadlock = errors.New("dimmunix: relock of owned error-checking mutex")
	// ErrTimeout reports a LockTimeout expiry.
	ErrTimeout = errors.New("dimmunix: lock timed out")
	// ErrDeadlockRecovered reports that a recovery hook aborted this
	// thread's lock wait.
	ErrDeadlockRecovered = errors.New("dimmunix: lock wait aborted by deadlock recovery")
	// ErrNotOwner reports an unlock by a non-owner.
	ErrNotOwner = errors.New("dimmunix: unlock of mutex not owned by this thread")
	// ErrThreadPruned reports a lock operation on a Thread handle the
	// idle pruner already retired (best-effort detection): re-resolve
	// via CurrentThread, or hold handles via RegisterThread, which is
	// never pruned.
	ErrThreadPruned = errors.New("dimmunix: thread handle was pruned after idling")
	// ErrMutexRetired reports an acquisition attempt on a mutex that was
	// retired by Retire (the drop-in facade supersedes a binding after a
	// default-runtime Shutdown). Callers should re-resolve the current
	// instance and retry.
	ErrMutexRetired = errors.New("dimmunix: mutex retired after runtime shutdown")
)

// Mutex is Dimmunix's instrumented mutex. Create with Runtime.NewMutex.
// The explicit-thread methods (LockT, UnlockT, ...) take a Thread handle,
// for isolated runtimes, tests and tools; the implicit methods (Lock,
// Unlock, ...) resolve the calling goroutine via its goroutine ID first.
// Both run the same acquisition pipeline.
type Mutex struct {
	rt   *Runtime
	kind MutexKind
	ls   *lockStateRef

	token chan struct{}
	owner atomic.Pointer[Thread]
	rec   int32 // owner-only
	// retired marks a superseded instance (see Retire). Checked under
	// token ownership, so retire-vs-acquire is race-free.
	retired atomic.Bool
}

// lockStateRef aliases avoidance.LockState without exporting it.
type lockStateRef = avoidanceLockState

// NewMutex creates a Normal mutex.
func (rt *Runtime) NewMutex() *Mutex { return rt.NewMutexKind(Normal) }

// NewMutexKind creates a mutex of the given kind.
func (rt *Runtime) NewMutexKind(kind MutexKind) *Mutex {
	m := &Mutex{
		rt:    rt,
		kind:  kind,
		ls:    rt.cache.NewLock(),
		token: make(chan struct{}, 1),
	}
	m.token <- struct{}{}
	return m
}

// ID returns the mutex's Dimmunix lock ID.
func (m *Mutex) ID() uint64 { return m.ls.ID }

// Kind returns the mutex kind.
func (m *Mutex) Kind() MutexKind { return m.kind }

// Every acquisition method below is an entry point: it walks its
// caller's call site in its own body (Site) and hands the walk down, so
// the pipeline never unwinds Dimmunix's frames on the steady-state path.

// Lock acquires the mutex on behalf of the calling goroutine.
func (m *Mutex) Lock() error {
	var s Site
	s.Walk(s.Bound(m))
	return MutexLock(m, &s)
}

// Unlock releases the mutex on behalf of the calling goroutine.
func (m *Mutex) Unlock() error {
	t := m.rt.currentPinned()
	defer t.unpin()
	return m.UnlockT(t)
}

// TryLock attempts the lock without blocking.
func (m *Mutex) TryLock() (bool, error) {
	var s Site
	s.Walk(s.Bound(m))
	return MutexTryLock(m, &s)
}

// LockTimeout acquires the mutex, failing with ErrTimeout after d.
func (m *Mutex) LockTimeout(d time.Duration) error {
	var s Site
	s.Walk(s.Bound(m))
	return MutexLockTimeout(m, &s, d)
}

// MustLock is Lock that panics on error, for code that uses Normal or
// Recursive mutexes without recovery hooks.
func (m *Mutex) MustLock() {
	var s Site
	s.Walk(s.Bound(m))
	if err := MutexLock(m, &s); err != nil {
		panic(err)
	}
}

// MustUnlock is Unlock that panics on error.
func (m *Mutex) MustUnlock() {
	if err := m.Unlock(); err != nil {
		panic(err)
	}
}

// LockT acquires the mutex on behalf of t, running the full §5.4
// avoidance protocol: request -> (yield)* -> go -> block -> acquired.
func (m *Mutex) LockT(t *Thread) error {
	var s Site
	s.Walk(s.Bound(m))
	return m.rt.acquire(t, m, m.ls, &s, lockReq{})
}

// TryLockT attempts the lock without blocking. A YIELD decision counts as
// failure (the thread may not enter the dangerous pattern), mirroring
// pthread_mutex_trylock + the §6 cancel event.
func (m *Mutex) TryLockT(t *Thread) (bool, error) {
	var s Site
	s.Walk(s.Bound(m))
	return tryResult(m.rt.acquire(t, m, m.ls, &s, lockReq{try: true}))
}

// LockTimeoutT acquires with a deadline, like pthread_mutex_timedlock.
func (m *Mutex) LockTimeoutT(t *Thread, d time.Duration) error {
	var s Site
	s.Walk(s.Bound(m))
	return m.rt.acquire(t, m, m.ls, &s, lockReq{timeout: expiring(d)})
}

// LockCtx acquires the mutex on behalf of the calling goroutine, giving
// up when ctx is canceled or its deadline passes (the error is then
// ctx.Err()). A context cancellation rolls the request back with the same
// §6 cancel event as a timeout.
func (m *Mutex) LockCtx(ctx context.Context) error {
	var s Site
	s.Walk(s.Bound(m))
	return MutexLockCtx(m, &s, ctx)
}

// LockCtxT is LockCtx on behalf of an explicit thread handle.
func (m *Mutex) LockCtxT(t *Thread, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var s Site
	s.Walk(s.Bound(m))
	return ctxErr(ctx, m.rt.acquire(t, m, m.ls, &s, lockReq{done: ctx.Done()}))
}

// implicit runs one acquisition on behalf of the calling goroutine.
func (m *Mutex) implicit(s *Site, req lockReq) error {
	t := m.rt.currentPinned()
	defer t.unpin()
	return m.rt.acquire(t, m, m.ls, s, req)
}

func (m *Mutex) runtime() *Runtime { return m.rt }

// MutexLock, MutexTryLock, MutexLockCtx and MutexLockTimeout are Lock,
// TryLock, LockCtx and LockTimeout for an entry point that walked its own
// caller's call site into s: the methods above, and the drop-in facade's.
func MutexLock(m *Mutex, s *Site) error { return m.implicit(s, lockReq{}) }

func MutexTryLock(m *Mutex, s *Site) (bool, error) {
	return tryResult(m.implicit(s, lockReq{try: true}))
}

func MutexLockCtx(m *Mutex, s *Site, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr(ctx, m.implicit(s, lockReq{done: ctx.Done()}))
}

func MutexLockTimeout(m *Mutex, s *Site, d time.Duration) error {
	return m.implicit(s, lockReq{timeout: expiring(d)})
}

// Retire marks the mutex as superseded, succeeding only if it can
// observe the mutex free with no acquisition in flight: taking the token
// serializes retirement against every acquirer, which re-checks the flag
// under token ownership and bounces with ErrMutexRetired. Used by the
// drop-in facade when rebinding after a default-runtime Shutdown; once
// retired, a mutex never grants again.
func (m *Mutex) Retire() bool {
	select {
	case <-m.token:
	default:
		return false
	}
	m.retired.Store(true)
	m.token <- struct{}{}
	return true
}

// reenter implements rawLock: a Recursive mutex counts the relock, an
// ErrorCheck one refuses it, and a Normal one reports nothing — its owner
// goes on to a genuine self-deadlock on the token, exactly like
// PTHREAD_MUTEX_NORMAL (TryLock and LockTimeout fail cleanly there).
func (m *Mutex) reenter(t *Thread, _ bool) (bool, error) {
	if m.owner.Load() != t {
		return false, nil
	}
	switch m.kind {
	case Recursive:
		m.rec++
		return true, nil
	case ErrorCheck:
		return false, ErrSelfDeadlock
	}
	return false, nil
}

// tryGrant implements rawLock: grab the token without blocking.
func (m *Mutex) tryGrant(t *Thread, _ bool) (bool, error) {
	select {
	case <-m.token:
		return m.own(t)
	default:
		return false, nil
	}
}

// waitGrant implements rawLock: block on the token.
func (m *Mutex) waitGrant(t *Thread, _ bool, deadline <-chan time.Time, done <-chan struct{}) error {
	select {
	case <-m.token:
		_, err := m.own(t)
		return err
	case <-deadline:
		return ErrTimeout
	case <-done:
		return errCtxDone
	case <-t.abortChan():
		t.consumeAbort()
		return ErrDeadlockRecovered
	}
}

// own completes a grant under token ownership, bouncing the token back
// if the mutex was retired meanwhile.
func (m *Mutex) own(t *Thread) (bool, error) {
	if m.retired.Load() {
		m.token <- struct{}{}
		return false, ErrMutexRetired
	}
	m.owner.Store(t)
	m.rec = 1
	return true, nil
}

// noteFastHold implements rawLock. The mutex is owner-only (only
// UnlockT/UnlockHandoff by the holder releases it), so the hold cannot be
// released before the acquisition returns and logging after the fact is
// safe.
func (m *Mutex) noteFastHold(t *Thread, in *stackInterned, _ bool) {
	m.rt.cache.NoteFastHold(t.ts, m.ls, in, false)
}

// UnlockT releases the mutex on behalf of t. The release event is
// recorded (buffered or queued) strictly before the token is returned;
// because any subsequent wait-edge event of any thread flushes its buffer
// first, the monitor still observes the §5.2 release-before-reacquire
// order wherever it matters for detection.
func (m *Mutex) UnlockT(t *Thread) error {
	if m.owner.Load() != t {
		return ErrNotOwner
	}
	t.pin() // keep t live until the release event is emitted
	defer t.unpin()
	if m.rec > 1 {
		m.rec--
		if m.rt.cfg.Mode != ModeOff {
			m.releaseOne(t)
		}
		return nil
	}
	if m.rt.cfg.Mode != ModeOff {
		m.releaseOne(t)
	} else {
		t.ts.NoteRelease()
	}
	m.rec = 0
	m.owner.Store(nil)
	m.token <- struct{}{}
	return nil
}

// releaseOne retires one recursion level's avoidance hold. ReleaseAny
// routes it through whichever tier the hold lives on now: still-logged
// fast holds retire lock-free, guarded holds — including fast holds that
// epoch reconciliation adopted into the Allowed sets — take the guarded
// release. Hold entries of one lock are interchangeable for removal, so
// pairing levels out of order is immaterial. Owner-only, called before
// the token is returned.
func (m *Mutex) releaseOne(t *Thread) {
	m.rt.cache.ReleaseAny(t.ts, m.ls)
}

// UnlockHandoff releases the mutex on behalf of whichever thread owns it,
// supporting the sync.Mutex discipline where Lock and Unlock may run on
// different goroutines (a locked Mutex handed off to another goroutine).
// It assumes that discipline: the owning goroutine must not operate on
// the mutex concurrently, and misuse detection (double unlock) is
// deterministic only when calls are serialized, exactly as with sync.
func (m *Mutex) UnlockHandoff() error {
	t := m.owner.Load()
	if t == nil {
		return ErrNotOwner
	}
	return m.UnlockT(t)
}

// Holder returns the owning thread's ID (0 when free), for diagnostics.
func (m *Mutex) Holder() int32 {
	if t := m.owner.Load(); t != nil {
		return t.ID()
	}
	return 0
}
