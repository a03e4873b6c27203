package core

import (
	"context"
	"sync"
	"time"
)

// RWMutex is Dimmunix's instrumented reader/writer mutex — a scenario
// class the original paper never covered. The writer path runs the full
// §5.4 avoidance protocol exactly like Mutex; the reader path runs the
// same request protocol and its holds enter the Allowed sets as shared
// ("reader-held") edges, so reader call sites participate in signatures
// and a writer deadlocking against readers is detected, archived, and
// avoided like any other pattern.
//
// Semantics follow sync.RWMutex with two deliberate deviations:
//
//   - acquisition is ownership-checked per Thread (RUnlockT by a thread
//     that holds no read lock returns ErrNotOwner instead of corrupting
//     state; the implicit RUnlock tolerates cross-goroutine hand-off via
//     RUnlockHandoff), and
//   - a thread that already holds a read lock is granted recursive read
//     acquisition immediately even while a writer is waiting, removing
//     sync.RWMutex's recursive-read-lock deadlock.
//
// Writers are preferred over new readers: once a writer is waiting, new
// first-acquisition readers queue behind it.
type RWMutex struct {
	rt *Runtime
	ls *lockStateRef

	mu      sync.Mutex
	gate    chan struct{}         // lazily made; closed+cleared to broadcast
	writer  *Thread               // exclusive holder, nil when not write-locked
	readers map[int32]*readerHold // reader thread ID -> hold record
	hFree   []*readerHold         // recycled hold records (alloc-free read path)
	wwait   int                   // writers blocked in acquire
	retired bool                  // superseded instance (see Retire); grants bounce
}

// Retire marks the mutex as superseded, succeeding only when it is
// observed free (no holder, no reader, no blocked writer) under rw.mu —
// which serializes retirement against every grant, so any straggler
// bounces with ErrMutexRetired and re-resolves. Used by the drop-in
// facade when rebinding after a default-runtime Shutdown.
func (rw *RWMutex) Retire() bool {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.writer != nil || len(rw.readers) != 0 || rw.wwait != 0 {
		return false
	}
	rw.retired = true
	rw.broadcastLocked()
	return true
}

// readerHold records one thread's outstanding read holds. Which of them
// came from the lock-free fast tier lives in the thread's fast-hold log
// (avoidance.Cache.NoteFastHold), not here, so epoch reconciliation can
// find every outstanding fast hold without walking mutex instances.
type readerHold struct {
	t *Thread
	n int // recursive hold count
}

// NewRWMutex creates an instrumented reader/writer mutex.
func (rt *Runtime) NewRWMutex() *RWMutex {
	return &RWMutex{
		rt:      rt,
		ls:      rt.cache.NewLock(),
		readers: make(map[int32]*readerHold),
	}
}

// ID returns the mutex's Dimmunix lock ID.
func (rw *RWMutex) ID() uint64 { return rw.ls.ID }

// Every acquisition method below is an entry point that walks its
// caller's call site in its own body, as with Mutex.

// Lock write-locks on behalf of the calling goroutine.
func (rw *RWMutex) Lock() error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWLock(rw, &s)
}

// Unlock write-unlocks on behalf of the calling goroutine.
func (rw *RWMutex) Unlock() error {
	t := rw.rt.currentPinned()
	defer t.unpin()
	return rw.UnlockT(t)
}

// RLock read-locks on behalf of the calling goroutine.
func (rw *RWMutex) RLock() error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWRLock(rw, &s)
}

// RUnlock read-unlocks on behalf of the calling goroutine — with the
// sync.RWMutex hand-off tolerance: if this goroutine holds no read lock
// but another thread does, one of those holds is released instead (see
// RUnlockHandoff). Use RUnlockT for strict per-thread ownership.
func (rw *RWMutex) RUnlock() error {
	t := rw.rt.currentPinned()
	defer t.unpin()
	return rw.RUnlockHandoff(t)
}

// TryLock attempts the write lock without blocking.
func (rw *RWMutex) TryLock() (bool, error) {
	var s Site
	s.Walk(s.Bound(rw))
	return RWTryLock(rw, &s)
}

// TryRLock attempts a read lock without blocking.
func (rw *RWMutex) TryRLock() (bool, error) {
	var s Site
	s.Walk(s.Bound(rw))
	return RWTryRLock(rw, &s)
}

// LockTimeout write-locks, failing with ErrTimeout after d.
func (rw *RWMutex) LockTimeout(d time.Duration) error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWLockTimeout(rw, &s, d)
}

// RLockTimeout read-locks, failing with ErrTimeout after d.
func (rw *RWMutex) RLockTimeout(d time.Duration) error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWRLockTimeout(rw, &s, d)
}

// LockCtx write-locks, giving up when ctx fires (error is then ctx.Err()).
func (rw *RWMutex) LockCtx(ctx context.Context) error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWLockCtx(rw, &s, ctx)
}

// RLockCtx read-locks, giving up when ctx fires (error is then ctx.Err()).
func (rw *RWMutex) RLockCtx(ctx context.Context) error {
	var s Site
	s.Walk(s.Bound(rw))
	return RWRLockCtx(rw, &s, ctx)
}

// LockT write-locks on behalf of t, running the full avoidance protocol.
func (rw *RWMutex) LockT(t *Thread) error {
	var s Site
	s.Walk(s.Bound(rw))
	return rw.rt.acquire(t, rw, rw.ls, &s, lockReq{})
}

// RLockT read-locks on behalf of t. The request participates in the
// avoidance protocol; the resulting hold is shared.
func (rw *RWMutex) RLockT(t *Thread) error {
	var s Site
	s.Walk(s.Bound(rw))
	return rw.rt.acquire(t, rw, rw.ls, &s, lockReq{shared: true})
}

// TryLockT attempts the write lock without blocking; a YIELD decision
// counts as failure, as with Mutex.TryLockT.
func (rw *RWMutex) TryLockT(t *Thread) (bool, error) {
	var s Site
	s.Walk(s.Bound(rw))
	return tryResult(rw.rt.acquire(t, rw, rw.ls, &s, lockReq{try: true}))
}

// TryRLockT attempts a read lock without blocking.
func (rw *RWMutex) TryRLockT(t *Thread) (bool, error) {
	var s Site
	s.Walk(s.Bound(rw))
	return tryResult(rw.rt.acquire(t, rw, rw.ls, &s, lockReq{shared: true, try: true}))
}

// LockTimeoutT write-locks with a deadline.
func (rw *RWMutex) LockTimeoutT(t *Thread, d time.Duration) error {
	var s Site
	s.Walk(s.Bound(rw))
	return rw.rt.acquire(t, rw, rw.ls, &s, lockReq{timeout: expiring(d)})
}

// RLockTimeoutT read-locks with a deadline.
func (rw *RWMutex) RLockTimeoutT(t *Thread, d time.Duration) error {
	var s Site
	s.Walk(s.Bound(rw))
	return rw.rt.acquire(t, rw, rw.ls, &s, lockReq{shared: true, timeout: expiring(d)})
}

// LockCtxT is LockCtx on behalf of an explicit thread handle.
func (rw *RWMutex) LockCtxT(t *Thread, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var s Site
	s.Walk(s.Bound(rw))
	return ctxErr(ctx, rw.rt.acquire(t, rw, rw.ls, &s, lockReq{done: ctx.Done()}))
}

// RLockCtxT is RLockCtx on behalf of an explicit thread handle.
func (rw *RWMutex) RLockCtxT(t *Thread, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var s Site
	s.Walk(s.Bound(rw))
	return ctxErr(ctx, rw.rt.acquire(t, rw, rw.ls, &s, lockReq{shared: true, done: ctx.Done()}))
}

// implicit runs one acquisition on behalf of the calling goroutine.
func (rw *RWMutex) implicit(s *Site, req lockReq) error {
	t := rw.rt.currentPinned()
	defer t.unpin()
	return rw.rt.acquire(t, rw, rw.ls, s, req)
}

func (rw *RWMutex) runtime() *Runtime { return rw.rt }

// RWLock, RWRLock, RWTryLock, RWTryRLock, RWLockCtx, RWRLockCtx,
// RWLockTimeout and RWRLockTimeout are the implicit-identity methods of
// the same names for an entry point that walked its own caller's call
// site into s: the methods above, and the drop-in facade's.
func RWLock(rw *RWMutex, s *Site) error { return rw.implicit(s, lockReq{}) }

func RWRLock(rw *RWMutex, s *Site) error { return rw.implicit(s, lockReq{shared: true}) }

func RWTryLock(rw *RWMutex, s *Site) (bool, error) {
	return tryResult(rw.implicit(s, lockReq{try: true}))
}

func RWTryRLock(rw *RWMutex, s *Site) (bool, error) {
	return tryResult(rw.implicit(s, lockReq{shared: true, try: true}))
}

func RWLockCtx(rw *RWMutex, s *Site, ctx context.Context) error {
	return rwCtx(rw, ctx, s, lockReq{done: ctx.Done()})
}

func RWRLockCtx(rw *RWMutex, s *Site, ctx context.Context) error {
	return rwCtx(rw, ctx, s, lockReq{shared: true, done: ctx.Done()})
}

func rwCtx(rw *RWMutex, ctx context.Context, s *Site, req lockReq) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr(ctx, rw.implicit(s, req))
}

func RWLockTimeout(rw *RWMutex, s *Site, d time.Duration) error {
	return rw.implicit(s, lockReq{timeout: expiring(d)})
}

func RWRLockTimeout(rw *RWMutex, s *Site, d time.Duration) error {
	return rw.implicit(s, lockReq{shared: true, timeout: expiring(d)})
}

// reenter implements rawLock. Recursive read acquisition never blocks
// (the shared hold is already granted to this thread), so like Mutex
// reentrancy it needs no avoidance decision — and granting it even while
// a writer waits removes sync.RWMutex's recursive-RLock deadlock. A write
// relock is a genuine self-deadlock, as with sync.RWMutex.
func (rw *RWMutex) reenter(t *Thread, shared bool) (bool, error) {
	if !shared {
		return false, nil
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	h := rw.readers[t.ts.ID]
	if h == nil {
		return false, nil
	}
	h.n++
	return true, nil
}

// noteFastHold implements rawLock. For reads the reader-table entry is
// re-checked under rw.mu: if the hold was already handed off and fully
// released (sync.RWMutex's cross-goroutine discipline), the guarded
// Release that retired it was a tolerated no-op and logging the hold now
// would strand a phantom entry — so nothing is recorded. The write path
// is owner-only (only UnlockT/UnlockHandoff by the holder releases it),
// so the hold is provably still live and needs no re-check.
func (rw *RWMutex) noteFastHold(t *Thread, in *stackInterned, read bool) {
	if !read {
		rw.rt.cache.NoteFastHold(t.ts, rw.ls, in, false)
		return
	}
	rw.mu.Lock()
	if rw.readers[t.ts.ID] != nil {
		rw.rt.cache.NoteFastHold(t.ts, rw.ls, in, true)
	}
	rw.mu.Unlock()
}

// tryGrant implements rawLock: one grant attempt against the current
// state.
func (rw *RWMutex) tryGrant(t *Thread, shared bool) (bool, error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.retired {
		return false, ErrMutexRetired
	}
	return rw.grantLocked(t, shared), nil
}

// waitGrant implements rawLock: queue on the gate until a grant attempt
// succeeds. A queued writer holds new first-acquisition readers back.
func (rw *RWMutex) waitGrant(t *Thread, shared bool, deadline <-chan time.Time, done <-chan struct{}) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if !shared {
		rw.wwait++
	}
	var err error
	for err == nil {
		if rw.retired {
			err = ErrMutexRetired
			break
		}
		if rw.grantLocked(t, shared) {
			break
		}
		gate := rw.gateLocked()
		rw.mu.Unlock()
		select {
		case <-gate:
		case <-deadline:
			err = ErrTimeout
		case <-done:
			err = errCtxDone
		case <-t.abortChan():
			t.consumeAbort()
			err = ErrDeadlockRecovered
		}
		rw.mu.Lock()
	}
	if !shared {
		rw.wwait--
		if err != nil && rw.wwait == 0 {
			// Readers queued behind this writer may go now.
			rw.broadcastLocked()
		}
	}
	return err
}

// grantLocked attempts the state transition; rw.mu held.
func (rw *RWMutex) grantLocked(t *Thread, read bool) bool {
	if read {
		if rw.writer == nil && rw.wwait == 0 {
			var h *readerHold
			if n := len(rw.hFree); n > 0 {
				h = rw.hFree[n-1]
				rw.hFree = rw.hFree[:n-1]
			} else {
				h = new(readerHold)
			}
			h.t, h.n = t, 1
			rw.readers[t.ts.ID] = h
			return true
		}
		return false
	}
	if rw.writer == nil && len(rw.readers) == 0 {
		rw.writer = t
		return true
	}
	return false
}

func (rw *RWMutex) gateLocked() chan struct{} {
	if rw.gate == nil {
		rw.gate = make(chan struct{})
	}
	return rw.gate
}

func (rw *RWMutex) broadcastLocked() {
	if rw.gate != nil {
		close(rw.gate)
		rw.gate = nil
	}
}

// UnlockT write-unlocks on behalf of t. As with Mutex, the release is
// recorded (buffered into t's event buffer, or published directly)
// strictly before the lock becomes available — both happen under rw.mu —
// and the buffer is flushed before any wait edge t later publishes, so
// the monitor can never observe t blocked while an unflushed release
// would have broken the cycle (§5.2 event order).
func (rw *RWMutex) UnlockT(t *Thread) error {
	t.pin() // keep t live until the release event is emitted
	defer t.unpin()
	rw.mu.Lock()
	if rw.writer != t {
		rw.mu.Unlock()
		return ErrNotOwner
	}
	if rw.rt.cfg.Mode != ModeOff {
		rw.rt.cache.ReleaseAny(t.ts, rw.ls)
	} else {
		t.ts.NoteRelease()
	}
	rw.writer = nil
	rw.broadcastLocked()
	rw.mu.Unlock()
	return nil
}

// RUnlockT read-unlocks on behalf of t (strict: t must hold a read
// lock).
func (rw *RWMutex) RUnlockT(t *Thread) error {
	t.pin()
	defer t.unpin()
	rw.mu.Lock()
	h := rw.readers[t.ts.ID]
	if h == nil {
		rw.mu.Unlock()
		return ErrNotOwner
	}
	rw.runlockLocked(h)
	rw.mu.Unlock()
	return nil
}

// RUnlockHandoff releases one read hold: t's own if it has one,
// otherwise an arbitrary reader's — the sync.RWMutex discipline where
// RLock and RUnlock may run on different goroutines. Under hand-off the
// released hold's thread attribution in the avoidance structures is
// approximate (some reader's hold is retired), which keeps the hold
// multiset correct; prefer RUnlockT when thread identity is known.
func (rw *RWMutex) RUnlockHandoff(t *Thread) error {
	t.pin()
	defer t.unpin()
	rw.mu.Lock()
	h := rw.readers[t.ts.ID]
	if h == nil {
		for _, v := range rw.readers {
			h = v
			break
		}
	}
	if h == nil {
		rw.mu.Unlock()
		return ErrNotOwner
	}
	rw.runlockLocked(h)
	rw.mu.Unlock()
	return nil
}

// runlockLocked retires one of h's read holds; rw.mu held. The release
// event reaches the monitor queue before the lock can become available,
// preserving the §5.2 order.
func (rw *RWMutex) runlockLocked(h *readerHold) {
	if rw.rt.cfg.Mode != ModeOff {
		rw.rt.cache.ReleaseAny(h.t.ts, rw.ls)
	} else if h.n == 1 {
		// ModeOff counts one hold per reader (reentrant reads return
		// before the counter); retire it with the final release.
		h.t.ts.NoteRelease()
	}
	if h.n > 1 {
		h.n--
		return
	}
	delete(rw.readers, h.t.ts.ID)
	if len(rw.hFree) < 64 {
		h.t = nil
		rw.hFree = append(rw.hFree, h)
	}
	if len(rw.readers) == 0 {
		rw.broadcastLocked()
	}
}

// UnlockHandoff write-unlocks on behalf of whichever thread holds the
// write lock — the sync.RWMutex discipline where Lock and Unlock may run
// on different goroutines. See Mutex.UnlockHandoff for the caveats.
func (rw *RWMutex) UnlockHandoff() error {
	rw.mu.Lock()
	t := rw.writer
	rw.mu.Unlock()
	if t == nil {
		return ErrNotOwner
	}
	return rw.UnlockT(t)
}

// Holder returns the write-holding thread's ID (0 when not write-locked).
func (rw *RWMutex) Holder() int32 {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.writer != nil {
		return rw.writer.ID()
	}
	return 0
}

// ReaderCount returns the number of distinct threads holding read locks.
func (rw *RWMutex) ReaderCount() int {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return len(rw.readers)
}
