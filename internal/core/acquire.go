package core

import (
	"context"
	"errors"
	"slices"
	"time"
)

// rawLock is the mutual-exclusion primitive underneath the acquisition
// pipeline (Runtime.acquire): the token-channel Mutex and the gate-based
// RWMutex today, a multi-holder resource (semaphore, bounded buffer)
// tomorrow. The pipeline owns everything the primitives have in common —
// the §5.4 protocol, tiering, rollback, bookkeeping — and a primitive owns
// only its grant rule, so a test can drive the pipeline's edges over a
// scripted fake. shared selects a reader-style hold; exclusive-only
// primitives ignore it.
type rawLock interface {
	// reenter reports whether t already holds the lock in a way that lets
	// this acquisition complete without blocking (recursive mutex relock,
	// recursive read), counting the extra level when it does. A relock
	// the primitive forbids returns its error (ErrSelfDeadlock).
	reenter(t *Thread, shared bool) (bool, error)
	// tryGrant takes the lock for t if that needs no waiting. The only
	// error is ErrMutexRetired.
	tryGrant(t *Thread, shared bool) (bool, error)
	// waitGrant blocks until the lock is granted to t, or fails with
	// ErrTimeout (deadline fired), errCtxDone (done closed),
	// ErrDeadlockRecovered (t was aborted) or ErrMutexRetired.
	waitGrant(t *Thread, shared bool, deadline <-chan time.Time, done <-chan struct{}) error
	// noteFastHold logs a freshly granted fast-tier hold in t's fast-hold
	// log (avoidance.Cache.NoteFastHold) under whatever primitive state
	// proves the hold is still live — a shared hold may already have been
	// handed off and released by another goroutine.
	noteFastHold(t *Thread, in *stackInterned, shared bool)
}

// lockReq is what distinguishes one acquisition entry point from another;
// the zero value is a plain blocking exclusive Lock.
type lockReq struct {
	shared  bool
	try     bool            // fail with errWouldBlock instead of waiting or yielding
	timeout time.Duration   // > 0: fail with ErrTimeout after this long; < 0: already expired
	done    <-chan struct{} // when closed, fail with errCtxDone
}

// expiring converts a LockTimeout duration into lockReq.timeout, where
// zero means "no deadline": a non-positive duration has already expired.
func expiring(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

// errWouldBlock is internal: a try acquisition could not complete
// immediately. tryResult turns it into (false, nil).
var errWouldBlock = errors.New("dimmunix: would block")

// errCtxDone is internal: the caller's context fired mid-acquisition;
// ctxErr translates it to ctx.Err().
var errCtxDone = errors.New("dimmunix: context done")

func tryResult(err error) (bool, error) {
	if err == nil {
		return true, nil
	}
	if errors.Is(err, errWouldBlock) {
		return false, nil
	}
	return false, err
}

// ctxErr translates the internal errCtxDone sentinel of an acquisition
// that ran with ctx.Done() into ctx.Err().
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, errCtxDone) {
		return ctx.Err()
	}
	return err
}

// deadline is a request's timeout, armed on first use: an acquisition
// that never waits never allocates a timer.
type deadline struct {
	d     time.Duration
	timer *time.Timer
}

func (dl *deadline) C() <-chan time.Time {
	if dl.d <= 0 {
		return nil
	}
	if dl.timer == nil {
		dl.timer = time.NewTimer(dl.d)
	}
	return dl.timer.C
}

func (dl *deadline) stop() {
	if dl.timer != nil {
		dl.timer.Stop()
	}
}

// acquire is the one acquisition pipeline: every Lock/RLock/TryLock/
// LockCtx/LockTimeout variant of Mutex and RWMutex, and Cond's
// re-acquisition, is this function over a rawLock, the Site its entry
// point walked and a lockReq. It runs the full §5.4 avoidance protocol —
// request -> (yield)* -> go -> block -> acquired — on behalf of t for the
// lock whose avoidance node is ls.
func (rt *Runtime) acquire(t *Thread, raw rawLock, ls *lockStateRef, s *Site, req lockReq) error {
	if h := siteHook.Load(); h != nil {
		(*h)(slices.Clone(s.pcs[:s.n]))
	}
	if req.timeout < 0 {
		return ErrTimeout
	}
	t.pin() // the pruner must not retire t while this operation is in flight
	dl := deadline{d: req.timeout}
	// One deferred call for both cleanups: a second defer, times this
	// function's many returns, exceeds what the compiler open-codes, and
	// the fallback costs every acquisition tens of nanoseconds.
	defer func() {
		dl.stop()
		t.unpin()
	}()
	if t.released.Load() {
		return ErrThreadPruned
	}
	// Reentrancy first: it never blocks, so no avoidance decision is
	// needed (§5.1 multiset edges record it). In ModeOff a reentrant level
	// is not counted: the hold counter tracks one hold per owner.
	if ok, err := raw.reenter(t, req.shared); ok || err != nil {
		if ok && rt.cfg.Mode != ModeOff {
			in, _ := t.classify(s)
			if rt.cache.ReentrantAcquired(t.ts, ls, in) {
				raw.noteFastHold(t, in, req.shared)
			}
		}
		return err
	}

	if rt.cfg.Mode == ModeOff {
		err := grant(t, raw, req, &dl)
		if err == nil {
			t.ts.NoteHold() // pruning-only bookkeeping; no cache involved
		}
		return err
	}

	// Latency sampling: 1-in-64 fast-tier operations take two timestamps
	// (see Runtime.latFast); the other 63 pay one counter increment. The
	// entry point walked its caller's frames before acquire, so a sample
	// covers classification, tiering and the raw grant, not the walk.
	t.latCtr++
	var t0 time.Time
	if t.latCtr&63 == 0 {
		t0 = time.Now()
	}

	in, safe := t.classify(s)

	// Fast tier: a stack provably safe under the live history epoch skips
	// the guarded §5.4 protocol entirely — in steady state one atomic
	// epoch load plus a call-site table hit, then straight to the raw
	// lock. An uncontended acquisition costs one batched event record;
	// only a blocking one publishes the Go wait edge first (so a
	// brand-new deadlock through this call site is still detected). The
	// hold enters the thread's fast-hold log so its release pairs with
	// FastRelease and epoch reconciliation can adopt it.
	if safe {
		ok, err := raw.tryGrant(t, req.shared)
		switch {
		case err != nil:
			return err // ErrMutexRetired: the caller re-resolves
		case ok:
			rt.cache.FastAcquiredImmediate(t.ts, ls, in, req.shared)
		case req.try:
			rt.cache.FastTryFailed()
			return errWouldBlock
		default:
			rt.cache.FastBlocking(t.ts, ls, in)
			if err := raw.waitGrant(t, req.shared, dl.C(), req.done); err != nil {
				rt.cache.FastCancel(t.ts, ls)
				return err
			}
			rt.cache.FastAcquired(t.ts, ls, in, req.shared)
		}
		raw.noteFastHold(t, in, req.shared)
		if !t0.IsZero() {
			rt.latFast.Record(time.Since(t0))
		}
		return nil
	}

	// Guarded tier: always record latency — the §5.4 protocol is already
	// a slow path, so two timestamps disappear in the noise.
	if t0.IsZero() {
		t0 = time.Now()
	}
	if err := rt.requestLoop(t, ls, in, req, &dl); err != nil {
		return err
	}
	// GO: the allow edge is committed; block on the real lock.
	if err := grant(t, raw, req, &dl); err != nil {
		rt.cache.Cancel(t.ts, ls)
		return err
	}
	if req.shared {
		rt.cache.AcquiredShared(t.ts, ls)
	} else {
		rt.cache.Acquired(t.ts, ls)
	}
	rt.latGuarded.Record(time.Since(t0))
	return nil
}

// grant performs the raw acquisition once nothing has to be published
// before it may block: immediately if possible, otherwise waiting under
// the request's bounds.
func grant(t *Thread, raw rawLock, req lockReq, dl *deadline) error {
	ok, err := raw.tryGrant(t, req.shared)
	if ok || err != nil {
		return err
	}
	if req.try {
		return errWouldBlock
	}
	return raw.waitGrant(t, req.shared, dl.C(), req.done)
}

// requestLoop runs the §5.4 request -> (yield)* -> go protocol for thread
// t on lock ls with call stack in. On a nil return the allow edge is
// committed and the caller must follow up with Acquired/AcquiredShared
// (or Cancel if the raw block fails). Every failure return has already
// rolled the request back with a Cancel.
func (rt *Runtime) requestLoop(t *Thread, ls *lockStateRef, in *stackInterned, req lockReq, dl *deadline) error {
	// yieldStart times the yield episode (first YIELD decision until the
	// loop exits, however it exits) for Stats().Latency.Yield.
	var yieldStart time.Time
	for {
		dec := rt.cache.Request(t.ts, ls, in)
		var err error
		switch {
		case dec.Go:
		case req.try:
			err = errWouldBlock
		default:
			if yieldStart.IsZero() {
				yieldStart = time.Now()
			}
			// YIELD: wait until a cause binding may have broken, bounded by
			// the max-yield duration (§5.7) and the caller's deadline.
			var maxYield <-chan time.Time
			var yieldTimer *time.Timer
			if rt.cfg.MaxYield > 0 {
				yieldTimer = time.NewTimer(rt.cfg.MaxYield)
				maxYield = yieldTimer.C
			}
			select {
			case <-t.ts.Wake:
			case <-maxYield:
				rt.cache.NoteAbort(t.ts, dec.Sig.ID, rt.cfg.AbortDisableThreshold)
			case <-dl.C():
				err = ErrTimeout
			case <-req.done:
				err = errCtxDone
			case <-t.abortChan():
				t.consumeAbort()
				err = ErrDeadlockRecovered
			}
			if yieldTimer != nil {
				yieldTimer.Stop()
			}
			if err == nil {
				continue
			}
		}
		if err != nil {
			rt.cache.Cancel(t.ts, ls)
		}
		if !yieldStart.IsZero() {
			rt.latYield.Record(time.Since(yieldStart))
		}
		return err
	}
}
