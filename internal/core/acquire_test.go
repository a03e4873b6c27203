package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// fakeLock is a scripted rawLock: every tryGrant and waitGrant consumes
// the next step of its script, so a test decides exactly where an
// acquisition is granted, made to wait, or bounced — the pipeline's
// rollback edges run on cue instead of on timing. It also keeps the
// raw-side truth (who holds it how many times) for the tests to compare
// the avoidance side against.
type fakeLock struct {
	t      *testing.T
	rt     *Runtime
	ls     *lockStateRef
	script []fakeStep
	held   map[*Thread]int
}

// fakeStep is one scripted outcome.
type fakeStep struct {
	on string // "try" or "wait": the call this step answers
	// err, when set, is returned (ErrMutexRetired is the only error a try
	// step may carry). A wait step with block set instead waits for the
	// pipeline's own bounds — deadline, done, abort — and returns what
	// fired, after running whenBlocked (which is how a test fires one).
	err         error
	busy        bool // try only: report the lock busy
	block       bool
	whenBlocked func()
}

func newFakeLock(t *testing.T, rt *Runtime, script ...fakeStep) *fakeLock {
	return &fakeLock{t: t, rt: rt, ls: rt.cache.NewLock(), script: script, held: make(map[*Thread]int)}
}

func (f *fakeLock) next(on string) fakeStep {
	f.t.Helper()
	if len(f.script) == 0 || f.script[0].on != on {
		f.t.Fatalf("fakeLock: unscripted %s call (script left: %+v)", on, f.script)
	}
	st := f.script[0]
	f.script = f.script[1:]
	return st
}

func (f *fakeLock) reenter(*Thread, bool) (bool, error) { return false, nil }

func (f *fakeLock) tryGrant(t *Thread, _ bool) (bool, error) {
	st := f.next("try")
	if st.err != nil || st.busy {
		return false, st.err
	}
	f.held[t]++
	return true, nil
}

func (f *fakeLock) waitGrant(t *Thread, _ bool, deadline <-chan time.Time, done <-chan struct{}) error {
	st := f.next("wait")
	if st.block {
		if st.whenBlocked != nil {
			st.whenBlocked()
		}
		select {
		case <-deadline:
			return ErrTimeout
		case <-done:
			return errCtxDone
		case <-t.abortChan():
			t.consumeAbort()
			return ErrDeadlockRecovered
		}
	}
	if st.err != nil {
		return st.err
	}
	f.held[t]++
	return nil
}

func (f *fakeLock) noteFastHold(t *Thread, in *stackInterned, shared bool) {
	f.rt.cache.NoteFastHold(t.ts, f.ls, in, shared)
}

// lock is the single application call site of every acquisition in these
// tests (this file is the application as far as call-site stripping goes),
// so its walk starts at its own frame.
//
//go:noinline
func (f *fakeLock) lock(t *Thread, req lockReq) error {
	var s Site
	s.n = stack.CapturePCs(0, s.Bound(f))
	return f.rt.acquire(t, f, f.ls, &s, req)
}

func (f *fakeLock) siteView() (*Runtime, *atomic.Bool) { return f.rt, nil }

func (f *fakeLock) unlock(t *Thread) {
	f.held[t]--
	f.rt.cache.ReleaseAny(t.ts, f.ls)
}

// checkBooks asserts what must hold after every pipeline exit, successful
// or rolled back: the avoidance side counts exactly the holds the raw
// lock granted, nothing of a failed request is left behind (no allow
// edge, no yield registration), every acquisition landed in exactly one
// tier, and the script was consumed.
func (f *fakeLock) checkBooks(th *Thread) {
	f.t.Helper()
	if got, want := th.ts.LiveHolds(), f.held[th]; got != want {
		f.t.Fatalf("avoidance counts %d holds, the raw lock granted %d", got, want)
	}
	if f.held[th] == 0 && !f.rt.cache.ThreadQuiescent(th.ts) {
		f.t.Fatal("a rolled-back request left avoidance state behind")
	}
	st := f.rt.Stats()
	if st.FastAcquired+st.GuardedAcquired != st.Acquired {
		f.t.Fatalf("tier split broken: fast %d + guarded %d != acquired %d", st.FastAcquired, st.GuardedAcquired, st.Acquired)
	}
	if len(f.script) != 0 {
		f.t.Fatalf("script not consumed: %+v", f.script)
	}
}

// tiers runs fn once per tier: on a runtime whose fast tier serves the
// (empty-history, hence safe) call site, and on one that sends every
// request through the guarded §5.4 protocol.
func tiers(t *testing.T, fn func(t *testing.T, rt *Runtime, th *Thread, guarded bool)) {
	for _, guarded := range []bool{false, true} {
		name := map[bool]string{false: "fast", true: "guarded"}[guarded]
		t.Run(name, func(t *testing.T) {
			rt := MustNewLab(testConfig(), Lab{DisableFastPath: guarded})
			defer rt.Stop()
			th := rt.RegisterThread("pipeline")
			defer th.Close()
			fn(t, rt, th, guarded)
		})
	}
}

// tierDelta is the movement of the counters a rollback test cares about.
type tierDelta struct{ fast, guarded, cancels, requests uint64 }

func deltaOf(before, after StatsSnapshot) tierDelta {
	return tierDelta{
		fast:     after.FastAcquired - before.FastAcquired,
		guarded:  after.GuardedAcquired - before.GuardedAcquired,
		cancels:  after.Cancels - before.Cancels,
		requests: after.Requests - before.Requests,
	}
}

// TestPipelineRollbackEdges drives every way an acquisition can fail
// after the pipeline has published something for it, on both tiers, and
// checks the books after each — then that the very next acquisition on
// the same lock and thread goes through cleanly.
func TestPipelineRollbackEdges(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	edges := []struct {
		name string
		req  lockReq
		// steps answers the acquisition's raw calls; abort marks the one
		// whose blocked wait is ended by a recovery abort of the thread.
		steps   []fakeStep
		abort   bool
		want    error
		cancels uint64
	}{
		{"timeout while blocked", lockReq{timeout: time.Millisecond},
			[]fakeStep{{on: "try", busy: true}, {on: "wait", block: true}}, false, ErrTimeout, 1},
		{"ctx done while blocked", lockReq{done: closed},
			[]fakeStep{{on: "try", busy: true}, {on: "wait", block: true}}, false, errCtxDone, 1},
		{"abort while blocked", lockReq{},
			[]fakeStep{{on: "try", busy: true}, {on: "wait", block: true}}, true, ErrDeadlockRecovered, 1},
		{"retired at the try", lockReq{},
			[]fakeStep{{on: "try", err: ErrMutexRetired}}, false, ErrMutexRetired, 0},
		{"retired after the wait", lockReq{},
			[]fakeStep{{on: "try", busy: true}, {on: "wait", err: ErrMutexRetired}}, false, ErrMutexRetired, 1},
		{"try finds it busy", lockReq{try: true},
			[]fakeStep{{on: "try", busy: true}}, false, errWouldBlock, 1},
	}
	for _, e := range edges {
		t.Run(e.name, func(t *testing.T) {
			tiers(t, func(t *testing.T, rt *Runtime, th *Thread, guarded bool) {
				steps := append([]fakeStep(nil), e.steps...)
				if e.abort {
					steps[len(steps)-1].whenBlocked = func() { rt.AbortThreads(th.ID()) }
				}
				cancels := e.cancels
				if guarded && errors.Is(e.want, ErrMutexRetired) {
					// The guarded tier has committed its allow edge before
					// it ever touches the raw lock, so even a bounce at the
					// try owes a Cancel.
					cancels = 1
				}
				f := newFakeLock(t, rt, steps...)
				before := rt.Stats()
				if err := f.lock(th, e.req); !errors.Is(err, e.want) {
					t.Fatalf("acquire = %v, want %v", err, e.want)
				}
				if d := deltaOf(before, rt.Stats()); d.fast != 0 || d.guarded != 0 || d.cancels != cancels {
					t.Fatalf("failed acquisition moved the counters: %+v, want %d cancels and no acquisition", d, cancels)
				}
				f.checkBooks(th)

				// The rollback must leave lock and thread fully usable.
				f.script = []fakeStep{{on: "try"}}
				before = rt.Stats()
				if err := f.lock(th, lockReq{}); err != nil {
					t.Fatalf("acquisition after the rollback: %v", err)
				}
				want := tierDelta{fast: 1, requests: 1}
				if guarded {
					want = tierDelta{guarded: 1, requests: 1}
				}
				if d := deltaOf(before, rt.Stats()); d != want {
					t.Fatalf("acquisition after the rollback: counters moved %+v, want %+v", d, want)
				}
				f.checkBooks(th)
				f.unlock(th)
				f.checkBooks(th)
			})
		})
	}
}

// TestPipelineBlockedThenGranted covers the successful slow exits: a
// fast-tier acquisition that had to publish its wait edge first, and a
// guarded one that waited after GO.
func TestPipelineBlockedThenGranted(t *testing.T) {
	tiers(t, func(t *testing.T, rt *Runtime, th *Thread, guarded bool) {
		f := newFakeLock(t, rt, fakeStep{on: "try", busy: true}, fakeStep{on: "wait"})
		before := rt.Stats()
		if err := f.lock(th, lockReq{timeout: time.Minute}); err != nil {
			t.Fatal(err)
		}
		want := tierDelta{fast: 1, requests: 1}
		if guarded {
			want = tierDelta{guarded: 1, requests: 1}
		}
		if d := deltaOf(before, rt.Stats()); d != want {
			t.Fatalf("counters moved %+v, want %+v", d, want)
		}
		f.checkBooks(th)
		f.unlock(th)
		f.checkBooks(th)
	})
}

// TestPipelineYieldRollback covers the exits of the yield loop, which
// never reach the raw lock at all: with a signature that the fake's one
// call site instantiates on its own, every request yields, and a try, an
// expired deadline, a done context and a recovery abort must each cancel
// the request.
func TestPipelineYieldRollback(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("yielder")
	defer th.Close()

	f := newFakeLock(t, rt, fakeStep{on: "try"})
	if err := f.lock(th, lockReq{}); err != nil {
		t.Fatal(err)
	}
	f.unlock(th)
	var site stack.Stack
	for _, s := range rt.CapturedStacks() {
		if strings.HasSuffix(s[0].Func, "(*fakeLock).lock") {
			site = s
		}
	}
	if site == nil {
		t.Fatalf("call site of fakeLock.lock not captured: %v", rt.CapturedStacks())
	}
	rt.hist.Add(signature.New(signature.Deadlock, []stack.Stack{site}, 1))

	for _, e := range []struct {
		name  string
		req   lockReq
		abort bool
		want  error
	}{
		{"try", lockReq{try: true}, false, errWouldBlock},
		{"timeout", lockReq{timeout: time.Nanosecond}, false, ErrTimeout},
		{"ctx done", lockReq{done: closed}, false, errCtxDone},
		{"abort", lockReq{}, true, ErrDeadlockRecovered},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.abort {
				rt.AbortThreads(th.ID()) // pending until the next wait consumes it
			}
			before := rt.Stats()
			if err := f.lock(th, e.req); !errors.Is(err, e.want) {
				t.Fatalf("acquire = %v, want %v", err, e.want)
			}
			after := rt.Stats()
			if d := deltaOf(before, after); d.fast != 0 || d.guarded != 0 || d.cancels != 1 {
				t.Fatalf("yield exit moved the counters: %+v, want one cancel and no acquisition", d)
			}
			if after.Yields == before.Yields {
				t.Fatal("the request never yielded; the test exercised nothing")
			}
			f.checkBooks(th)
		})
	}
}
