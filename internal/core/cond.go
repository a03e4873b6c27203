package core

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Cond is a condition variable associated with a Dimmunix mutex. §6 of the
// paper instruments "locks associated with conditional variables" — the
// condition wait itself is not a lock-order hazard, but the release and
// re-acquisition of the associated mutex must flow through the avoidance
// protocol, which is exactly what Wait does here.
//
// Semantics are Mesa-style, like sync.Cond and pthread_cond_t: Wait may
// wake spuriously, so callers loop on their predicate.
type Cond struct {
	// L is the associated mutex; it must be held when calling Wait.
	L *Mutex

	mu      sync.Mutex
	waiters []chan struct{}
}

// ErrNotHeld reports a Cond.Wait without holding the associated mutex.
var ErrNotHeld = errors.New("dimmunix: cond wait without holding the mutex")

// NewCond creates a condition variable bound to l.
func (rt *Runtime) NewCond(l *Mutex) *Cond {
	return &Cond{L: l}
}

// NewCond creates a condition variable bound to l (equivalent to
// Runtime.NewCond: the runtime is implied by the mutex).
func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// The wait methods below are entry points: each walks its caller's call
// site in its own body before parking, for the re-acquisition. The walk
// is complete (Site.BoundComplete): it outlives the wait, and a complete
// capture stays valid under whatever epoch the history reached meanwhile.

// WaitT atomically releases the mutex, waits for Signal/Broadcast (or an
// abort from deadlock recovery), and re-acquires the mutex through the
// full avoidance protocol before returning.
func (c *Cond) WaitT(t *Thread) error {
	var s Site
	s.Walk(s.BoundComplete(c.L))
	return c.waitT(t, 0, nil, &s)
}

// WaitTimeoutT is WaitT with a bound on the wait for the signal. The
// mutex re-acquisition is unbounded either way; ErrTimeout reports that
// the signal did not arrive (the mutex is still re-acquired and held when
// WaitTimeoutT returns ErrTimeout, matching pthread_cond_timedwait).
func (c *Cond) WaitTimeoutT(t *Thread, d time.Duration) error {
	var s Site
	s.Walk(s.BoundComplete(c.L))
	return c.waitT(t, d, nil, &s)
}

// WaitCtxT is WaitT bounded by ctx during the wait for the signal: when
// ctx fires first, the mutex is still re-acquired (so the caller's
// unlock discipline holds, like the timeout path) and ctx.Err() is
// returned. The re-acquisition itself runs the full avoidance protocol
// and is interrupted only by deadlock recovery, whose error is returned
// with the mutex NOT held.
func (c *Cond) WaitCtxT(t *Thread, ctx context.Context) error {
	var s Site
	s.Walk(s.BoundComplete(c.L))
	return c.waitCtx(t, ctx, &s)
}

// WaitCtx is WaitCtxT for the calling goroutine.
func (c *Cond) WaitCtx(ctx context.Context) error {
	var s Site
	s.Walk(s.BoundComplete(c.L))
	return CondWaitCtx(c, &s, ctx)
}

// Wait is WaitT for the calling goroutine.
func (c *Cond) Wait() error {
	var s Site
	s.Walk(s.BoundComplete(c.L))
	return CondWait(c, &s)
}

// CondWait and CondWaitCtx are Wait and WaitCtx for an entry point that
// walked its own caller's call site into s: the methods above, and the
// drop-in facade's.
func CondWait(c *Cond, s *Site) error {
	t := c.L.rt.currentPinned()
	defer t.unpin()
	return c.waitT(t, 0, nil, s)
}

func CondWaitCtx(c *Cond, s *Site, ctx context.Context) error {
	t := c.L.rt.currentPinned()
	defer t.unpin()
	return c.waitCtx(t, ctx, s)
}

func (c *Cond) waitCtx(t *Thread, ctx context.Context, s *Site) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := c.waitT(t, 0, ctx.Done(), s)
	if errors.Is(err, errCtxDone) {
		return ctx.Err()
	}
	return err
}

// waitT parks t and re-acquires c.L for the call site s walked.
func (c *Cond) waitT(t *Thread, timeout time.Duration, done <-chan struct{}, s *Site) error {
	t.pin() // the pruner must not retire t between the release and re-acquire
	defer t.unpin()
	if c.L.owner.Load() != t {
		return ErrNotHeld
	}
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()

	if err := c.L.UnlockT(t); err != nil {
		c.removeWaiter(ch)
		return err
	}

	var timedOut, ctxDone bool
	var deadline <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case <-ch:
	case <-deadline:
		timedOut = true
		c.abandonWait(ch)
	case <-done:
		ctxDone = true
		c.abandonWait(ch)
	case <-t.abortChan():
		t.consumeAbort()
		c.abandonWait(ch)
		// Re-acquire so the caller's unlock discipline stays intact,
		// then surface the recovery.
		if err := c.L.rt.acquire(t, c.L, c.L.ls, s, lockReq{}); err != nil {
			return err
		}
		return ErrDeadlockRecovered
	}

	if err := c.L.rt.acquire(t, c.L, c.L.ls, s, lockReq{}); err != nil {
		return err
	}
	if timedOut {
		return ErrTimeout
	}
	if ctxDone {
		return errCtxDone
	}
	return nil
}

// removeWaiter drops ch from the wait list if still present.
func (c *Cond) removeWaiter(ch chan struct{}) {
	c.mu.Lock()
	for i, w := range c.waiters {
		if w == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// abandonWait retires ch after a timeout, cancellation, or abort won
// the race against a wakeup. A Signal may have already popped ch from
// the wait list and delivered its token (Signal sends under c.mu, so
// after removeWaiter returns any such send has completed); consuming
// that token here would strand a sibling waiter whose queue item this
// one never processes — forward it instead.
func (c *Cond) abandonWait(ch chan struct{}) {
	c.removeWaiter(ch)
	select {
	case <-ch:
		c.Signal()
	default:
	}
}

// Signal wakes one waiter, if any. The caller usually holds the mutex but
// is not required to (as with sync.Cond).
func (c *Cond) Signal() {
	c.mu.Lock()
	if n := len(c.waiters); n > 0 {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	for _, ch := range c.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	c.waiters = nil
	c.mu.Unlock()
}
