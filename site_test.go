// Tests for what every acquisition entry point hands the pipeline: the raw
// PCs of its caller's frames, walked in its own body, and for a Cond wait a
// capture that stays valid across the wait.
package dimmunix_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"dimmunix"
	"dimmunix/internal/core"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// observeSites records the PCs every acquisition is handed until the test
// ends, and returns a function that reads what was recorded so far.
func observeSites(t *testing.T) func() [][]uintptr {
	t.Helper()
	var mu sync.Mutex
	var sites [][]uintptr
	t.Cleanup(core.ObserveSites(func(pcs []uintptr) {
		mu.Lock()
		sites = append(sites, pcs)
		mu.Unlock()
	}))
	return func() [][]uintptr {
		mu.Lock()
		defer mu.Unlock()
		return append([][]uintptr(nil), sites...)
	}
}

// firstFrame resolves the innermost frame of an entry point's walk past
// the compiler-generated wrappers runtime.Callers elides, as the
// call-site table's check does (stack.ResolveWalk): the walk is physical,
// and the first PC of a lock taken through a method value is its
// wrapper's.
func firstFrame(pcs []uintptr) stack.Frame {
	var f stack.Frame
	if s := stack.ResolveWalk(pcs, 1); len(s) == 1 {
		f = s[0]
	}
	return f
}

// TestEntryPointsHandDownCallSite: every public acquisition entry point
// walks from its caller's frame, so the first PC the pipeline is handed
// resolves to the test's own acquisition line — and no acquisition is
// handed a walk that starts inside Dimmunix.
func TestEntryPointsHandDownCallSite(t *testing.T) { forEachEntry(t, checkEntryPointsHandDownCallSite) }

func checkEntryPointsHandDownCallSite(t *testing.T, p pipeEntry) {
	initDefault(t)
	rt := dimmunix.Default()
	sites := observeSites(t)
	e, _, _ := driveEntry(t, rt, p, pipeTopA)
	found := false
	for _, pcs := range sites() {
		if len(pcs) == 0 {
			t.Fatal("an acquisition was handed no PCs")
		}
		f := firstFrame(pcs)
		if !strings.HasSuffix(f.File, "_test.go") {
			t.Errorf("an acquisition was handed a walk starting at %s, not at the application", f)
		}
		if f.File == "pipeline_test.go" && f.Line == e.line {
			found = true
		}
	}
	if !found {
		t.Fatalf("no acquisition was handed PCs starting at pipeline_test.go:%d", e.line)
	}
}

// TestModeOffNeverWalks: with Dimmunix off, no entry point walks.
func TestModeOffNeverWalks(t *testing.T) { forEachEntry(t, checkModeOffNeverWalks) }

func checkModeOffNeverWalks(t *testing.T, p pipeEntry) {
	initDefault(t, dimmunix.WithConfig(dimmunix.Config{Mode: dimmunix.ModeOff}))
	sites := observeSites(t)
	driveEntry(t, dimmunix.Default(), p, pipeTopA)
	got := sites()
	if len(got) == 0 {
		t.Fatal("no acquisition observed")
	}
	for _, pcs := range got {
		if len(pcs) != 0 {
			t.Fatalf("ModeOff acquisition walked %d frames", len(pcs))
		}
	}
}

// condWait is a Cond wait entry point driven from both sides: the waiter
// takes the mutex and waits (recording e.line first), the signaller takes
// and releases the mutex — which it can only once the waiter has parked —
// and signals.
type condWait struct {
	name   string
	lock   func(e *pipeEnv)
	wait   func(e *pipeEnv) error
	unlock func(e *pipeEnv)
	relock func(e *pipeEnv)
	signal func(e *pipeEnv)
}

var condWaits = []condWait{
	{
		name: "Cond.Wait",
		lock: func(e *pipeEnv) { e.mu.Lock() },
		wait: func(e *pipeEnv) error {
			e.line = nextLine()
			e.cond.Wait()
			return nil
		},
		unlock: func(e *pipeEnv) { e.mu.Unlock() },
		relock: func(e *pipeEnv) { e.mu.Lock(); e.mu.Unlock() },
		signal: func(e *pipeEnv) { e.cond.Signal() },
	},
	{
		name: "core.Cond.WaitT",
		lock: func(e *pipeEnv) { _ = e.cmu.LockT(e.th) },
		wait: func(e *pipeEnv) error {
			e.line = nextLine()
			return e.cc.WaitT(e.th)
		},
		unlock: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) },
		relock: func(e *pipeEnv) { _ = e.cmu.Lock(); _ = e.cmu.Unlock() },
		signal: func(e *pipeEnv) { e.cc.Signal() },
	},
}

// waitThrough parks one wait of w, reached through top, runs midWait
// while it is parked, then signals it, and returns the stats movement of
// the re-acquisition alone.
func waitThrough(t *testing.T, rt *dimmunix.Runtime, w condWait, top func(*pipeEnv, func(*pipeEnv) error) error, midWait func()) (e *pipeEnv, fast, guarded uint64) {
	t.Helper()
	e = newPipeEnv(rt)
	ready, returned := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.th = rt.RegisterThread(w.name)
		defer e.th.Close()
		w.lock(e)
		close(ready)
		if err := top(e, w.wait); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		close(returned)
		w.unlock(e)
	}()
	<-ready
	w.relock(e)
	if midWait != nil {
		midWait()
	}
	before := rt.Stats()
	w.signal(e)
	<-returned
	after := rt.Stats()
	wg.Wait()
	return e, after.FastAcquired - before.FastAcquired, after.GuardedAcquired - before.GuardedAcquired
}

// capturedHere returns a stack rt captured whose innermost frame is line
// of this file, or nil.
func capturedHere(rt *dimmunix.Runtime, line int) stack.Stack {
	for _, s := range rt.CapturedStacks() {
		if len(s) > 0 && s[0].File == "site_test.go" && s[0].Line == line {
			return s
		}
	}
	return nil
}

// TestCondReacquireOutlivesNoView: a Cond wait's re-acquisition is
// classified against the history as it is when the waiter wakes. A
// signature archived while the waiter is parked, covering its wait call
// site four frames deep, must send the re-acquisition to the guarded tier
// — even though a sibling path sharing the innermost two frames was
// classified safe before the wait, under the view the waiter parked with.
func TestCondReacquireOutlivesNoView(t *testing.T) {
	for _, w := range condWaits {
		t.Run(w.name, func(t *testing.T) {
			initDefault(t) // MatchDepth 2: depth-bounded keys cover two frames
			rt := dimmunix.Default()

			e, _, _ := waitThrough(t, rt, w, pipeTopA, nil)
			sA := capturedHere(rt, e.line)
			if len(sA) < 4 || !strings.HasSuffix(sA[3].Func, "pipeTopA") {
				t.Fatalf("could not find the pipeTopA stack of line %d: %v", e.line, sA)
			}
			// Move the epoch without deepening the shallow bound, then
			// classify the sibling path under it.
			other := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}, {Func: "nobody.main", File: "nobody.go", Line: 2}}
			nobody := stack.Stack{{Func: "nobody.relock", File: "nobody.go", Line: 3}}
			rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{nobody, other}, 2))
			if _, fast, guarded := waitThrough(t, rt, w, pipeTopB, nil); fast != 1 || guarded != 0 {
				t.Fatalf("safe path pipeTopB: fast=%d guarded=%d, want the fast tier", fast, guarded)
			}

			archive := func() { rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{sA, other}, 4)) }
			if _, fast, guarded := waitThrough(t, rt, w, pipeTopA, archive); fast != 0 || guarded != 1 {
				t.Fatalf("pipeTopA re-acquisition after a mid-wait archive: fast=%d guarded=%d, want the guarded tier", fast, guarded)
			}
		})
	}
}

// observeGuarded records the stack every guarded acquisition requests
// with until the test ends, and returns a function that reads those whose
// innermost frame is line of pipeline_test.go, in order.
func observeGuarded(t *testing.T) func(line int) []*stack.Interned {
	t.Helper()
	var mu sync.Mutex
	var ins []*stack.Interned
	t.Cleanup(core.ObserveGuarded(func(in *stack.Interned) {
		mu.Lock()
		ins = append(ins, in)
		mu.Unlock()
	}))
	return func(line int) []*stack.Interned {
		mu.Lock()
		defer mu.Unlock()
		var at []*stack.Interned
		for _, in := range ins {
			if len(in.S) > 0 && in.S[0].File == "pipeline_test.go" && in.S[0].Line == line {
				at = append(at, in)
			}
		}
		return at
	}
}

// lastWalkAt returns the last walk an acquisition was handed that starts
// at line of pipeline_test.go, resolved.
func lastWalkAt(t *testing.T, sites [][]uintptr, line int) []runtime.Frame {
	t.Helper()
	var last []runtime.Frame
	for _, pcs := range sites {
		if len(pcs) == 0 {
			continue
		}
		if f := firstFrame(pcs); f.File != "pipeline_test.go" || f.Line != line {
			continue
		}
		last = last[:0]
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			last = append(last, f)
			if !more {
				break
			}
		}
	}
	if last == nil {
		t.Fatalf("no walk started at pipeline_test.go:%d", line)
	}
	return last
}

// complete reports whether a resolved walk reached the goroutine's
// outermost frame — a walk no shallow bound cut short.
func complete(walk []runtime.Frame) bool {
	return walk[len(walk)-1].Function == "runtime.goexit"
}

// learnPipeTopA learns p's pipeTopA stack on rt and returns it with a
// function that archives it next to a stack nobody has, as deep as the
// pipeTopA frame: the path becomes dangerous without ever being
// instantiated, and the pipeTopB path stays safe.
func learnPipeTopA(t *testing.T, rt *dimmunix.Runtime, p pipeEntry) (sA stack.Stack, archive func()) {
	t.Helper()
	e, _, _ := driveEntry(t, rt, p, pipeTopA)
	sA = capturedAt(rt, e.line)
	at := p.topAt()
	if len(sA) <= at || !strings.HasSuffix(sA[at].Func, "pipeTopA") {
		t.Fatalf("could not find the pipeTopA stack of line %d: %v", e.line, sA)
	}
	other := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}, {Func: "nobody.main", File: "nobody.go", Line: 2}}
	return sA, func() { rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{sA, other}, at+1)) }
}

// TestHintedWalkIsTheCapturedStack: once an acquisition of a lock from a
// dangerous call site took the guarded tier, the lock's next entry point
// walks its call site completely (the tier hint) and hands the §5.4
// request the very interned stack the first acquisition recaptured from
// inside the lock path — on every entry point.
func TestHintedWalkIsTheCapturedStack(t *testing.T) {
	forEachEntry(t, checkHintedWalkIsTheCapturedStack)
}

func checkHintedWalkIsTheCapturedStack(t *testing.T, p pipeEntry) {
	initDefault(t, dimmunix.WithMatchDepth(4))
	rt := dimmunix.Default()
	sA, archive := learnPipeTopA(t, rt, p)
	archive()
	sites, guardedAt := observeSites(t), observeGuarded(t)
	e, fast, guarded := driveEntry(t, rt, p, pipeTopA, pipeTopA)
	if fast != 0 || guarded != 1 {
		t.Fatalf("hinted acquisition: fast=%d guarded=%d, want the guarded tier", fast, guarded)
	}
	ins := guardedAt(e.line)
	if len(ins) != 2 {
		t.Fatalf("%d guarded requests from line %d, want 2 (recaptured, then hinted)", len(ins), e.line)
	}
	if ins[0] != ins[1] {
		t.Fatalf("the hinted walk requested with %v, the recapture with %v", ins[1].S, ins[0].S)
	}
	if !ins[1].S.Equal(sA) {
		t.Fatalf("guarded request with %v, want the full stack %v", ins[1].S, sA)
	}
	if walk := lastWalkAt(t, sites(), e.line); !complete(walk) {
		t.Fatalf("the hinted entry point walked %d frames, not its whole stack", len(walk))
	}
}

// TestGuardedHintFromSafeSiteTakesFastTier: the tier hint only picks the
// walk's bound. A lock whose last acquisition was guarded, next taken
// from a call site no signature covers, walks that site completely and
// takes the fast tier.
func TestGuardedHintFromSafeSiteTakesFastTier(t *testing.T) {
	forEachEntry(t, checkGuardedHintFromSafeSiteTakesFastTier)
}

func checkGuardedHintFromSafeSiteTakesFastTier(t *testing.T, p pipeEntry) {
	initDefault(t, dimmunix.WithMatchDepth(4))
	rt := dimmunix.Default()
	_, archive := learnPipeTopA(t, rt, p)
	archive()
	sites := observeSites(t)
	e, fast, guarded := driveEntry(t, rt, p, pipeTopB, pipeTopA)
	if fast != 1 || guarded != 0 {
		t.Fatalf("safe pipeTopB after a guarded pipeTopA: fast=%d guarded=%d, want the fast tier", fast, guarded)
	}
	if walk := lastWalkAt(t, sites(), e.line); !complete(walk) {
		t.Fatalf("the hinted entry point walked %d frames, not its whole stack", len(walk))
	}
}

// TestFastHintSeesArchive: a lock whose last acquisition took the fast
// tier, next taken from a call site a signature archived in between
// covers, takes the guarded tier with the exact full stack: the stale
// hint costs the recapture, never the verdict.
func TestFastHintSeesArchive(t *testing.T) { forEachEntry(t, checkFastHintSeesArchive) }

func checkFastHintSeesArchive(t *testing.T, p pipeEntry) {
	initDefault(t, dimmunix.WithMatchDepth(4))
	rt := dimmunix.Default()
	sA, archive := learnPipeTopA(t, rt, p)
	guardedAt := observeGuarded(t)
	fastThenArchive := func(e *pipeEnv, acquire func(*pipeEnv) error) error {
		defer archive()
		return pipeTopA(e, acquire)
	}
	e, fast, guarded := driveEntry(t, rt, p, pipeTopA, fastThenArchive)
	if fast != 0 || guarded != 1 {
		t.Fatalf("pipeTopA after a mid-way archive: fast=%d guarded=%d, want the guarded tier", fast, guarded)
	}
	ins := guardedAt(e.line)
	if len(ins) != 1 || !ins[0].S.Equal(sA) {
		t.Fatalf("guarded requests from line %d: %v, want one with the full stack %v", e.line, ins, sA)
	}
}
