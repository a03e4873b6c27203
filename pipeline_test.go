// Tests for what the acquisition pipeline promises on every public entry
// point at once: the captured call site is the application's own line
// however many Dimmunix frames sit in between, and the fast tier never
// serves an acquisition whose call path an enabled signature covers —
// including when a sibling path that shares the innermost frames was
// classified safe first.
package dimmunix_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/stack"
)

// pipeEnv is one goroutine's view of the locks an entry point is driven
// over. Everything binds to the default runtime of the running subtest.
type pipeEnv struct {
	mu   dimmunix.Mutex
	em   embedsMutex
	rw   dimmunix.RWMutex
	cond *dimmunix.Cond
	cmu  *dimmunix.CoreMutex
	crw  *dimmunix.CoreRWMutex
	cc   *dimmunix.CoreCond
	th   *dimmunix.Thread // explicit handle of the driving goroutine
	line int              // source line of the acquisition call
}

func newPipeEnv(rt *dimmunix.Runtime) *pipeEnv {
	e := &pipeEnv{cmu: rt.NewMutex(), crw: rt.NewRWMutex()}
	e.cond = dimmunix.NewCond(&e.mu)
	e.cc = rt.NewCond(e.cmu)
	return e
}

// nextLine returns the source line after its call site: entry points
// record it immediately before their acquisition call.
func nextLine() int {
	_, _, line, _ := runtime.Caller(1)
	return line + 1
}

// signalUntil keeps signalling until the returned stop function is
// called, so a Wait issued meanwhile returns (Mesa semantics make the
// surplus signals harmless).
func signalUntil(signal func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				signal()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// pipeEntry is one public acquisition entry point. acquire performs
// exactly one acquisition through it (recording e.line first) and
// release undoes it; prep, when set, runs outside the measured window
// (Cond waits need their mutex held). above counts the application
// frames acquire's call line sits in above acquire itself (a helper
// function acquire calls); spawn runs each acquisition, and everything
// around it, on a goroutine of its own started by a go statement with
// arguments.
type pipeEntry struct {
	name    string
	prep    func(e *pipeEnv)
	acquire func(e *pipeEnv) error
	release func(e *pipeEnv)
	above   int
	spawn   bool
}

// topAt is the index of the pipeTop frame in a stack captured at p's call
// line: the call line's frame, the frames above, then pipeMid and
// pipeOuter.
func (p pipeEntry) topAt() int { return 3 + p.above }

// embedsMutex reaches Mutex.Lock through a promoted method: a
// sync.Locker holding one dispatches to the compiler-generated
// (*embedsMutex).Lock wrapper.
type embedsMutex struct{ dimmunix.Mutex }

// lockInlined is small enough for the compiler to inline into its
// caller. Its one line is its Lock call's.
func lockInlined(e *pipeEnv) { e.mu.Lock() }

var lockInlinedLine = func() int {
	f := runtime.FuncForPC(reflect.ValueOf(lockInlined).Pointer())
	_, line := f.FileLine(f.Entry())
	return line
}()

var errTryFailed = errors.New("try acquisition found the lock busy")

func okOrErr(ok bool, err error) error {
	if err == nil && !ok {
		return errTryFailed
	}
	return err
}

var pipeEntries = []pipeEntry{
	// Drop-in Mutex.
	{name: "Mutex.Lock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.mu.Lock()
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.TryLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		ok := e.mu.TryLock()
		return okOrErr(ok, nil)
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.LockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.mu.LockCtx(context.Background())
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.LockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.mu.LockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	// The same Lock through an interface value and through a method value:
	// whatever dispatch or wrapper code the compiler puts between the call
	// and Mutex.Lock, the application's line stays the innermost frame.
	{name: "Mutex.Lock.viaLocker", acquire: func(e *pipeEnv) error {
		var l sync.Locker = &e.mu
		e.line = nextLine()
		l.Lock()
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.Lock.viaMethodValue", acquire: func(e *pipeEnv) error {
		f := e.mu.Lock
		e.line = nextLine()
		f()
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	// Shapes where a frame-pointer walk and runtime.Callers see different
	// frames: an application function inlined into its caller (one
	// physical frame, two logical ones), a promoted method's wrapper, the
	// wrapper of a go statement with arguments below the application's
	// frames, and a deferred call's wrapper.
	{name: "Mutex.Lock.inlinedCaller", above: 1, acquire: func(e *pipeEnv) error {
		e.line = lockInlinedLine
		lockInlined(e)
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.Lock.viaPromotedMethod", acquire: func(e *pipeEnv) error {
		var l sync.Locker = &e.em
		e.line = nextLine()
		l.Lock()
		return nil
	}, release: func(e *pipeEnv) { e.em.Unlock() }},
	{name: "Mutex.Lock.onGoroutineWithArgs", spawn: true, acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.mu.Lock()
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Mutex.Lock.deferred", acquire: func(e *pipeEnv) error {
		defer e.mu.Lock()
		e.line = nextLine() // a deferred call returns to its function's exit
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},

	// Drop-in RWMutex.
	{name: "RWMutex.Lock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.rw.Lock()
		return nil
	}, release: func(e *pipeEnv) { e.rw.Unlock() }},
	{name: "RWMutex.RLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.rw.RLock()
		return nil
	}, release: func(e *pipeEnv) { e.rw.RUnlock() }},
	{name: "RWMutex.TryLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		ok := e.rw.TryLock()
		return okOrErr(ok, nil)
	}, release: func(e *pipeEnv) { e.rw.Unlock() }},
	{name: "RWMutex.TryRLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		ok := e.rw.TryRLock()
		return okOrErr(ok, nil)
	}, release: func(e *pipeEnv) { e.rw.RUnlock() }},
	{name: "RWMutex.LockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.rw.LockCtx(context.Background())
	}, release: func(e *pipeEnv) { e.rw.Unlock() }},
	{name: "RWMutex.RLockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.rw.RLockCtx(context.Background())
	}, release: func(e *pipeEnv) { e.rw.RUnlock() }},
	{name: "RWMutex.LockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.rw.LockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { e.rw.Unlock() }},
	{name: "RWMutex.RLockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.rw.RLockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { e.rw.RUnlock() }},
	{name: "RWMutex.RLocker", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.rw.RLocker().Lock()
		return nil
	}, release: func(e *pipeEnv) { e.rw.RLocker().Unlock() }},

	// Drop-in Cond: the acquisition is Wait's re-acquisition of L.
	{name: "Cond.Wait", prep: func(e *pipeEnv) { e.mu.Lock() }, acquire: func(e *pipeEnv) error {
		defer signalUntil(e.cond.Signal)()
		e.line = nextLine()
		e.cond.Wait()
		return nil
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},
	{name: "Cond.WaitCtx", prep: func(e *pipeEnv) { e.mu.Lock() }, acquire: func(e *pipeEnv) error {
		defer signalUntil(e.cond.Signal)()
		e.line = nextLine()
		return e.cond.WaitCtx(context.Background())
	}, release: func(e *pipeEnv) { e.mu.Unlock() }},

	// Explicit-runtime Mutex, implicit identity.
	{name: "core.Mutex.Lock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.Lock()
	}, release: func(e *pipeEnv) { _ = e.cmu.Unlock() }},
	{name: "core.Mutex.MustLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		e.cmu.MustLock()
		return nil
	}, release: func(e *pipeEnv) { e.cmu.MustUnlock() }},
	{name: "core.Mutex.TryLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.cmu.TryLock())
	}, release: func(e *pipeEnv) { _ = e.cmu.Unlock() }},
	{name: "core.Mutex.LockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.LockCtx(context.Background())
	}, release: func(e *pipeEnv) { _ = e.cmu.Unlock() }},
	{name: "core.Mutex.LockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.LockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { _ = e.cmu.Unlock() }},

	// Explicit-runtime Mutex, explicit handle.
	{name: "core.Mutex.LockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.LockT(e.th)
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},
	{name: "core.Mutex.TryLockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.cmu.TryLockT(e.th))
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},
	{name: "core.Mutex.LockCtxT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.LockCtxT(e.th, context.Background())
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},
	{name: "core.Mutex.LockTimeoutT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.cmu.LockTimeoutT(e.th, time.Minute)
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},

	// Explicit-runtime RWMutex, implicit identity.
	{name: "core.RWMutex.Lock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.Lock()
	}, release: func(e *pipeEnv) { _ = e.crw.Unlock() }},
	{name: "core.RWMutex.RLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLock()
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlock() }},
	{name: "core.RWMutex.TryLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.crw.TryLock())
	}, release: func(e *pipeEnv) { _ = e.crw.Unlock() }},
	{name: "core.RWMutex.TryRLock", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.crw.TryRLock())
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlock() }},
	{name: "core.RWMutex.LockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.LockCtx(context.Background())
	}, release: func(e *pipeEnv) { _ = e.crw.Unlock() }},
	{name: "core.RWMutex.RLockCtx", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLockCtx(context.Background())
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlock() }},
	{name: "core.RWMutex.LockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.LockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { _ = e.crw.Unlock() }},
	{name: "core.RWMutex.RLockTimeout", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLockTimeout(time.Minute)
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlock() }},

	// Explicit-runtime RWMutex, explicit handle.
	{name: "core.RWMutex.LockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.LockT(e.th)
	}, release: func(e *pipeEnv) { _ = e.crw.UnlockT(e.th) }},
	{name: "core.RWMutex.RLockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLockT(e.th)
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlockT(e.th) }},
	{name: "core.RWMutex.TryLockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.crw.TryLockT(e.th))
	}, release: func(e *pipeEnv) { _ = e.crw.UnlockT(e.th) }},
	{name: "core.RWMutex.TryRLockT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return okOrErr(e.crw.TryRLockT(e.th))
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlockT(e.th) }},
	{name: "core.RWMutex.LockCtxT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.LockCtxT(e.th, context.Background())
	}, release: func(e *pipeEnv) { _ = e.crw.UnlockT(e.th) }},
	{name: "core.RWMutex.RLockCtxT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLockCtxT(e.th, context.Background())
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlockT(e.th) }},
	{name: "core.RWMutex.LockTimeoutT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.LockTimeoutT(e.th, time.Minute)
	}, release: func(e *pipeEnv) { _ = e.crw.UnlockT(e.th) }},
	{name: "core.RWMutex.RLockTimeoutT", acquire: func(e *pipeEnv) error {
		e.line = nextLine()
		return e.crw.RLockTimeoutT(e.th, time.Minute)
	}, release: func(e *pipeEnv) { _ = e.crw.RUnlockT(e.th) }},

	// Explicit-runtime Cond.
	{name: "core.Cond.Wait", prep: func(e *pipeEnv) { _ = e.cmu.Lock() }, acquire: func(e *pipeEnv) error {
		defer signalUntil(e.cc.Signal)()
		e.line = nextLine()
		return e.cc.Wait()
	}, release: func(e *pipeEnv) { _ = e.cmu.Unlock() }},
	{name: "core.Cond.WaitT", prep: func(e *pipeEnv) { _ = e.cmu.LockT(e.th) }, acquire: func(e *pipeEnv) error {
		defer signalUntil(e.cc.Signal)()
		e.line = nextLine()
		return e.cc.WaitT(e.th)
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},
	{name: "core.Cond.WaitCtxT", prep: func(e *pipeEnv) { _ = e.cmu.LockT(e.th) }, acquire: func(e *pipeEnv) error {
		defer signalUntil(e.cc.Signal)()
		e.line = nextLine()
		return e.cc.WaitCtxT(e.th, context.Background())
	}, release: func(e *pipeEnv) { _ = e.cmu.UnlockT(e.th) }},
}

// The call ladder of the aliasing differential: an entry point's acquire
// closure runs under pipeMid < pipeOuter, reached through pipeTopA or
// pipeTopB. The two paths share their innermost three application frames
// (closure, pipeMid, pipeOuter) and differ in the fourth.

//go:noinline
func pipeMid(e *pipeEnv, acquire func(*pipeEnv) error) error { return acquire(e) }

//go:noinline
func pipeOuter(e *pipeEnv, acquire func(*pipeEnv) error) error { return pipeMid(e, acquire) }

//go:noinline
func pipeTopA(e *pipeEnv, acquire func(*pipeEnv) error) error { return pipeOuter(e, acquire) }

//go:noinline
func pipeTopB(e *pipeEnv, acquire func(*pipeEnv) error) error { return pipeOuter(e, acquire) }

// driveEntry runs one acquisition of p through top on a goroutine of its
// own, with a fresh explicit handle, after first running it through each
// of warm. Every acquisition is made from one call line, so the same
// top gives the same full stack. It returns the stats movement of the
// last acquisition.
func driveEntry(t *testing.T, rt *dimmunix.Runtime, p pipeEntry, top func(*pipeEnv, func(*pipeEnv) error) error, warm ...func(*pipeEnv, func(*pipeEnv) error) error) (e *pipeEnv, fast, guarded uint64) {
	t.Helper()
	e = newPipeEnv(rt)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.th = rt.RegisterThread(p.name)
		defer e.th.Close()
		for _, top := range append(warm, top) {
			if !p.spawn {
				fast, guarded = driveOnce(t, rt, p, e, top)
				continue
			}
			done := make(chan struct{})
			go driveSpawned(t, rt, p, e, top, &fast, &guarded, done)
			<-done
		}
	}()
	wg.Wait()
	return e, fast, guarded
}

// driveOnce runs one acquisition of p through top and releases it, and
// returns the stats movement of the acquisition.
func driveOnce(t *testing.T, rt *dimmunix.Runtime, p pipeEntry, e *pipeEnv, top func(*pipeEnv, func(*pipeEnv) error) error) (fast, guarded uint64) {
	if p.prep != nil {
		p.prep(e)
	}
	before := rt.Stats()
	if err := top(e, p.acquire); err != nil {
		t.Errorf("%s: acquisition failed: %v", p.name, err)
		return 0, 0
	}
	after := rt.Stats()
	p.release(e)
	return after.FastAcquired - before.FastAcquired, after.GuardedAcquired - before.GuardedAcquired
}

// driveSpawned is driveOnce at the bottom of a goroutine of its own.
func driveSpawned(t *testing.T, rt *dimmunix.Runtime, p pipeEntry, e *pipeEnv, top func(*pipeEnv, func(*pipeEnv) error) error, fast, guarded *uint64, done chan<- struct{}) {
	defer close(done)
	*fast, *guarded = driveOnce(t, rt, p, e, top)
}

// forEachEntry runs check on every pipeEntries row, one subtest each.
func forEachEntry(t *testing.T, check func(*testing.T, pipeEntry)) {
	for _, p := range pipeEntries {
		t.Run(p.name, func(t *testing.T) { check(t, p) })
	}
}

// pipeChecks are the properties every pipeEntries row is tested for, one
// test each (TestEntryPointCallSite and the rest): TestCallersWalkFallback
// runs them all again on runtime.Callers' PCs.
var pipeChecks = []struct {
	name  string
	check func(*testing.T, pipeEntry)
}{
	{"EntryPointCallSite", checkEntryPointCallSite},
	{"FastTierNeverAliasesDangerousPath", checkFastTierNeverAliasesDangerousPath},
	{"EntryPointsHandDownCallSite", checkEntryPointsHandDownCallSite},
	{"ModeOffNeverWalks", checkModeOffNeverWalks},
	{"HintedWalkIsTheCapturedStack", checkHintedWalkIsTheCapturedStack},
	{"GuardedHintFromSafeSiteTakesFastTier", checkGuardedHintFromSafeSiteTakesFastTier},
	{"FastHintSeesArchive", checkFastHintSeesArchive},
}

// capturedAt returns a stack rt captured whose innermost frame is line of
// this file, or nil.
func capturedAt(rt *dimmunix.Runtime, line int) stack.Stack {
	for _, s := range rt.CapturedStacks() {
		if len(s) > 0 && s[0].File == "pipeline_test.go" && s[0].Line == line {
			return s
		}
	}
	return nil
}

// TestEntryPointCallSite asserts, for every public acquisition entry
// point, that the innermost frame of the captured stack is the test's
// own call line: every Dimmunix frame in between — however the lock path
// is layered — was stripped, and nothing of the application was.
func TestEntryPointCallSite(t *testing.T) { forEachEntry(t, checkEntryPointCallSite) }

func checkEntryPointCallSite(t *testing.T, p pipeEntry) {
	initDefault(t)
	rt := dimmunix.Default()
	e, _, _ := driveEntry(t, rt, p, pipeTopA)
	s := capturedAt(rt, e.line)
	if s == nil {
		var sites []string
		for _, c := range rt.CapturedStacks() {
			sites = append(sites, c[0].String())
		}
		t.Fatalf("no captured stack has the acquisition call (pipeline_test.go:%d) as its innermost frame; call sites seen: %v", e.line, sites)
	}
	for i, want := range []string{"pipeMid", "pipeOuter", "pipeTopA"} {
		if at := p.topAt() - 2 + i; len(s) <= at || !strings.HasSuffix(s[at].Func, want) {
			t.Fatalf("frame %d above the call site is not %s:\n%v", at, want, s)
		}
	}
}

// TestFastTierNeverAliasesDangerousPath is the facade-level differential
// for truncated classification keys: with a depth-4 signature live on the
// pipeTopA path, warming the sibling pipeTopB path — same innermost three
// application frames — must not let the pipeTopA acquisition ride the
// fast tier on pipeTopB's cached verdict, whichever entry point (and
// therefore however deep a ladder of Dimmunix frames) it goes through.
func TestFastTierNeverAliasesDangerousPath(t *testing.T) {
	forEachEntry(t, checkFastTierNeverAliasesDangerousPath)
}

func checkFastTierNeverAliasesDangerousPath(t *testing.T, p pipeEntry) {
	initDefault(t, dimmunix.WithMatchDepth(4))
	rt := dimmunix.Default()

	// Learn the dangerous path's real stack, then archive it next
	// to a stack nobody has, so the signature makes the path
	// dangerous without ever being instantiated.
	_, archive := learnPipeTopA(t, rt, p)
	archive()

	if _, fast, guarded := driveEntry(t, rt, p, pipeTopB); fast != 1 || guarded != 0 {
		t.Fatalf("safe path pipeTopB: fast=%d guarded=%d, want the fast tier", fast, guarded)
	}
	if _, fast, guarded := driveEntry(t, rt, p, pipeTopA, pipeTopB); fast != 0 || guarded != 1 {
		t.Fatalf("dangerous path pipeTopA after warming pipeTopB: fast=%d guarded=%d — the fast tier bypassed an enabled signature", fast, guarded)
	}
	if _, fast, guarded := driveEntry(t, rt, p, pipeTopA); fast != 0 || guarded != 1 {
		t.Fatalf("dangerous path pipeTopA cold: fast=%d guarded=%d, want the guarded tier", fast, guarded)
	}
}
