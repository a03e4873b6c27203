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

// firstFrame resolves the innermost frame of a raw PC stack.
func firstFrame(pcs []uintptr) runtime.Frame {
	f, _ := runtime.CallersFrames(pcs[:1]).Next()
	return f
}

// TestEntryPointsHandDownCallSite: every public acquisition entry point
// walks from its caller's frame, so the first PC the pipeline is handed
// resolves to the test's own acquisition line — and no acquisition is
// handed a walk that starts inside Dimmunix.
func TestEntryPointsHandDownCallSite(t *testing.T) {
	for _, p := range pipeEntries {
		t.Run(p.name, func(t *testing.T) {
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
					t.Errorf("an acquisition was handed a walk starting at %s (%s:%d), not at the application", f.Function, f.File, f.Line)
				}
				if strings.HasSuffix(f.File, "/pipeline_test.go") && f.Line == e.line {
					found = true
				}
			}
			if !found {
				t.Fatalf("no acquisition was handed PCs starting at pipeline_test.go:%d", e.line)
			}
		})
	}
}

// TestModeOffNeverWalks: with Dimmunix off, no entry point walks.
func TestModeOffNeverWalks(t *testing.T) {
	for _, p := range pipeEntries {
		t.Run(p.name, func(t *testing.T) {
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
		})
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
