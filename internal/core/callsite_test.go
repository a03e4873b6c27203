package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

//go:noinline
func lockUnlockDeep(t *testing.T, th *Thread, m *Mutex, depth int) {
	if depth > 0 {
		lockUnlockDeep(t, th, m, depth-1)
		return
	}
	if err := m.LockT(th); err != nil {
		t.Error(err)
		return
	}
	if err := m.UnlockT(th); err != nil {
		t.Error(err)
	}
}

// TestCallSiteTableSharedAcrossThreads: classification does not depend on
// who is calling. Thread B is freshly registered and reaches the lock
// through a call path that shares only its innermost frames with the one
// thread A warmed (the goroutines start in different functions), so its
// first LockT is a hit on A's depth-bounded entry: no new call-site entry,
// no new interned stack, fast tier.
func TestCallSiteTableSharedAcrossThreads(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	m := rt.NewMutex()

	done := make(chan struct{})
	go func() { // thread A's entry function
		defer close(done)
		a := rt.RegisterThread("a")
		defer a.Close()
		for i := 0; i < 3; i++ { // miss, then hits; wrapDepth settles
			lockUnlockDeep(t, a, m, 12)
		}
	}()
	<-done

	sites, stacks, fast := rt.pcCache.Len(), rt.interner.Len(), rt.Stats().FastGos
	done = make(chan struct{})
	go func() { // thread B's entry function: a different outermost frame
		defer close(done)
		b := rt.RegisterThread("b")
		defer b.Close()
		lockUnlockDeep(t, b, m, 12)
	}()
	<-done

	if got := rt.pcCache.Len(); got != sites {
		t.Errorf("thread B's first lock grew the call-site table %d -> %d; A's entry should have served it", sites, got)
	}
	if got := rt.interner.Len(); got != stacks {
		t.Errorf("thread B's first lock interned a new stack (%d -> %d)", stacks, got)
	}
	if got := rt.Stats().FastGos; got != fast+1 {
		t.Errorf("FastGos %d -> %d, want thread B's lock on the fast tier", fast, got)
	}
}

// TestHintedWalkIsACompleteCapture: on a call path deeper than
// captureDepth, the entry walk of a lock whose last acquisition took the
// guarded tier (the tier hint) fills its bound and is still a complete
// capture. classify interns it as the exact stack the guarded request
// gets and records it in the call-site table for good — not as a
// depth-bounded key, which would send every such acquisition back to
// capture its stack again from inside the lock path.
func TestHintedWalkIsACompleteCapture(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("hinted")
	defer th.Close()
	m := rt.NewMutex()
	const depth = 24 // frames of recursion: the path outgrows captureDepth

	lockUnlockDeep(t, th, m, depth) // fast tier: learns the stack
	var site stack.Stack
	for _, s := range rt.CapturedStacks() {
		if len(s) > 0 && s[0].Func == "dimmunix/internal/core.lockUnlockDeep" && s[0].File == "callsite_test.go" {
			site = s
		}
	}
	if len(site) != rt.cfg.captureDepth {
		t.Fatalf("the learned stack has %d frames, want captureDepth %d: %v", len(site), rt.cfg.captureDepth, site)
	}
	nobody := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}}
	rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{site, nobody}, 4))
	lockUnlockDeep(t, th, m, depth) // guarded, recaptured: sets the hint
	if !m.hint.Load() {
		t.Fatal("a guarded acquisition left the lock's tier hint unset")
	}

	var walked []uintptr
	var requested *stack.Interned
	defer ObserveSites(func(pcs []uintptr) { walked = pcs })()
	defer ObserveGuarded(func(in *stack.Interned) { requested = in })()
	guarded := rt.Stats().GuardedAcquired
	lockUnlockDeep(t, th, m, depth)
	if got := rt.Stats().GuardedAcquired - guarded; got != 1 {
		t.Fatalf("the hinted acquisition took the guarded tier %d times, want 1", got)
	}
	if len(walked) != rt.cfg.captureDepth+walkSlack {
		t.Fatalf("the hinted entry point walked %d PCs, want its full bound %d and the slack %d", len(walked), rt.cfg.captureDepth, walkSlack)
	}
	if requested == nil || !requested.S.Equal(site) {
		t.Fatalf("the guarded request got %v, want the exact stack %v", requested, site)
	}
	if in, ok := rt.pcCache.Get(walked); !ok || in != requested {
		t.Fatal("the hinted walk is not in the call-site table as a complete capture of the requested stack")
	}
}

//go:noinline
func lockUnlockSafe(t *testing.T, th *Thread, m *Mutex) {
	if err := m.LockT(th); err != nil {
		t.Error(err)
		return
	}
	if err := m.UnlockT(th); err != nil {
		t.Error(err)
	}
}

// hintWorker alternates a call site and a second one on m, n times.
//
//go:noinline
func hintWorker(t *testing.T, rt *Runtime, m *Mutex, n int) {
	th := rt.RegisterThread("worker")
	defer th.Close()
	for range n {
		lockUnlockDeep(t, th, m, 0)
		lockUnlockSafe(t, th, m)
	}
}

// TestTierHintSharedLockConcurrent: goroutines sharing one lock take it
// alternately from a dangerous and a safe call site, so its tier hint
// flips under them all the time. The hint picks walk bounds, never
// tiers: every dangerous acquisition takes the guarded tier and every
// safe one the fast tier. Run under -race.
func TestTierHintSharedLockConcurrent(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	m := rt.NewMutex()
	hintWorker(t, rt, m, 1) // learns both stacks
	var site stack.Stack
	for _, s := range rt.CapturedStacks() {
		if len(s) > 1 && s[0].Func == "dimmunix/internal/core.lockUnlockDeep" && s[1].Func == "dimmunix/internal/core.hintWorker" {
			site = s
		}
	}
	if site == nil {
		t.Fatal("the dangerous call site's stack was not captured")
	}
	nobody := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}}
	rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{site, nobody}, 2))

	const workers, n = 4, 200
	before := rt.Stats()
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			hintWorker(t, rt, m, n)
		}()
	}
	wg.Wait()
	after := rt.Stats()
	if got := after.GuardedAcquired - before.GuardedAcquired; got != workers*n {
		t.Errorf("guarded acquisitions %d, want the %d dangerous ones", got, workers*n)
	}
	if got := after.FastAcquired - before.FastAcquired; got != workers*n {
		t.Errorf("fast acquisitions %d, want the %d safe ones", got, workers*n)
	}
}

// TestThreadSize keeps per-thread cache state from creeping back: every
// goroutine-per-request workload allocates and zeroes one Thread per request.
func TestThreadSize(t *testing.T) {
	if size := unsafe.Sizeof(Thread{}); size > 160 {
		t.Fatalf("sizeof(Thread) = %d B, want <= 160", size)
	}
}

// skewedAcquire plays an entry point inlined into the application: it
// walks in the application's own body, so its walk starts one frame out,
// at its caller's return address, and both its acquisition lines — site
// A and site B — hand the pipeline the same PCs. It returns the line of
// the acquisition it made.
//
//go:noinline
func skewedAcquire(t *testing.T, th *Thread, m *Mutex, b bool) int {
	var s Site
	s.Walk(s.Bound(m))
	var line int
	var err error
	if b {
		line, err = lineHere(), m.rt.acquire(th, m, m.ls, &s, lockReq{}) // site B
	} else {
		line, err = lineHere(), m.rt.acquire(th, m, m.ls, &s, lockReq{}) // site A
	}
	if err != nil {
		t.Error(err)
	} else if err := m.UnlockT(th); err != nil {
		t.Error(err)
	}
	return line
}

// lineHere returns the source line it is called from.
func lineHere() int {
	_, _, line, _ := runtime.Caller(1)
	return line
}

// skewedGo runs skewedAcquire at the bottom of a goroutine of its own, so
// every acquisition walks the same frames wherever the test drives it
// from.
//
//go:noinline
func skewedGo(t *testing.T, th *Thread, m *Mutex, b bool) int {
	var line int
	done := make(chan struct{})
	go func() {
		defer close(done)
		line = skewedAcquire(t, th, m, b)
	}()
	<-done
	return line
}

// TestSkewedWalkCostsRecapturesNeverAStack: a walker that disagrees with
// runtime.Callers — here one whose walk starts a frame out, so two call
// sites share every walked PC — costs recaptures, never a stack. Its key
// never resolves to the recapture's stack (keyCovers), so it is refused:
// each interned stack's innermost frame is its own acquisition line, a
// signature on site A sends A to the guarded tier after B warmed the
// shared key on the fast tier, and each warm acquisition pays exactly one
// capture from inside the lock path.
func TestSkewedWalkCostsRecapturesNeverAStack(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("skewed")
	defer th.Close()
	m := rt.NewMutex()

	capturedAt := func(line int) stack.Stack {
		for _, s := range rt.CapturedStacks() {
			if len(s) > 0 && s[0].Func == "dimmunix/internal/core.skewedAcquire" && s[0].Line == line {
				return s
			}
		}
		return nil
	}
	lineA := skewedGo(t, th, m, false)
	sA := capturedAt(lineA)
	if sA == nil {
		t.Fatalf("site A's stack (callsite_test.go:%d) was not interned", lineA)
	}
	nobody := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}}
	rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{sA, nobody}, 4))

	var captures atomic.Int64
	defer ObserveCaptures(func() { captures.Add(1) })()
	for i := range 3 {
		before, warm := rt.Stats(), captures.Load()
		lineB := skewedGo(t, th, m, true)
		if got := rt.Stats().FastAcquired - before.FastAcquired; got != 1 {
			t.Fatalf("site B, acquisition %d: %d fast acquisitions, want 1", i, got)
		}
		if got := captures.Load() - warm; i > 0 && got != 1 {
			t.Errorf("site B, warm acquisition %d: %d captures from inside the lock path, want exactly 1", i, got)
		}
		if capturedAt(lineB) == nil {
			t.Fatalf("site B's stack (callsite_test.go:%d) was not interned: its acquisition got another site's stack", lineB)
		}
	}
	before := rt.Stats()
	skewedGo(t, th, m, false)
	if fast, guarded := rt.Stats().FastAcquired-before.FastAcquired, rt.Stats().GuardedAcquired-before.GuardedAcquired; fast != 0 || guarded != 1 {
		t.Fatalf("site A after site B warmed their shared walk: fast=%d guarded=%d, want the guarded tier", fast, guarded)
	}
}
