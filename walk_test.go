// Tests for how entry points walk their call site: by frame pointers on
// amd64 and arm64, by runtime.Callers on every other GOARCH, and either
// way to the same interned stacks, with warm call sites never recaptured
// from inside the lock path. Where the two walkers' keys differ in shape,
// a test states what each one does (walksFramePointers).
package dimmunix_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/core"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// walksFramePointers says which walker core.Site.Walk is on this GOARCH:
// the frame-pointer one, whose PCs are physical frames, or
// runtime.Callers, whose PCs are logical ones.
const walksFramePointers = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"

// TestCallersWalkFallback: every entry point passes every pipeline check
// on runtime.Callers' PCs, the walk of every GOARCH without a
// frame-pointer walker. Each acquisition's walk is replaced, before it is
// classified, by runtime.Callers' frames from the application's first
// (callersWalk), so on amd64 and arm64 this runs the runtime.Callers walk
// under the race detector and in a debugger's build as well.
func TestCallersWalkFallback(t *testing.T) {
	var rewalked, missed atomic.Int64
	defer core.HookSites(func(buf []uintptr, n int) int {
		if n == 0 {
			return 0
		}
		if m := callersWalk(buf, n); m > 0 {
			rewalked.Add(1)
			return m
		}
		missed.Add(1)
		return n
	})()
	for _, c := range pipeChecks {
		t.Run(c.name, func(t *testing.T) { forEachEntry(t, c.check) })
	}
	if got := missed.Load(); got != 0 {
		t.Fatalf("%d walks rewalked by runtime.Callers, %d not found in its stack: want every walk rewalked", rewalked.Load(), got)
	}
}

// callersWalk rewrites the walk at buf's front, n PCs, with the frames
// runtime.Callers reports from the application's innermost on: from the
// first of them whose PC the walk holds too — the return PC into a
// physical frame, which runtime.Callers gives its innermost logical
// frame — past the wrapper frames it elides. It fills buf as far as the
// stack goes and returns how many PCs it recorded; 0 if no reported PC
// is in the walk.
func callersWalk(buf []uintptr, n int) int {
	var pcs [2 * stack.MaxCaptureDepth]uintptr
	all := pcs[:runtime.Callers(1, pcs[:])]
	for i, pc := range all {
		if slices.Contains(buf[:n], pc) {
			return copy(buf, all[i:])
		}
	}
	return 0
}

// TestWalkStaysOnTheGoroutineStack: locks taken in Go code that C calls
// back, from a C caller whose frame-pointer register points at a page
// that faults on any access (testdata/cgocallback), under a bound that
// reaches past the callback's Go frames. Each walk stops at the
// callback's outermost Go frame — reading C's frame pointer would kill
// the process — and each interned stack is runtime.Callers'. The C caller
// is x86-64 assembly, so the test needs amd64 and cgo.
func TestWalkStaysOnTheGoroutineStack(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("testdata/cgocallback's C caller is x86-64 assembly")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build testdata/cgocallback")
	}
	if out, err := exec.Command(goTool, "env", "CGO_ENABLED").Output(); err != nil || strings.TrimSpace(string(out)) != "1" {
		t.Skip("cgo is disabled")
	}
	bin := filepath.Join(t.TempDir(), "cgocallback")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./testdata/cgocallback").CombinedOutput(); err != nil {
		t.Fatalf("building testdata/cgocallback: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin).CombinedOutput(); err != nil || strings.TrimSpace(string(out)) != "ok" {
		t.Fatalf("testdata/cgocallback: %v\n%s", err, out)
	}
}

// countCaptures counts the captures from inside the lock path
// (core.ObserveCaptures) until the test ends.
func countCaptures(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	t.Cleanup(core.ObserveCaptures(func() { n.Add(1) }))
	return &n
}

// promoted reaches Mutex.Lock through a promoted method.
type promoted struct{ dimmunix.Mutex }

// The call paths of TestWarmWrapperShapesNeverRecapture. Each puts a
// compiler-generated wrapper frame among the physical frames a depth-4
// bound reaches.

// goShape takes the lock three application frames above the bottom of a
// goroutine started by a go statement with arguments: goLock < goMid <
// goBottom < goShape.gowrap1 < runtime.goexit.
//
//go:noinline
func goShape(mu *dimmunix.Mutex) {
	done := make(chan struct{})
	go goBottom(mu, done)
	<-done
}

//go:noinline
func goBottom(mu *dimmunix.Mutex, done chan<- struct{}) {
	goMid(mu)
	close(done)
}

//go:noinline
func goMid(mu *dimmunix.Mutex) { goLock(mu) }

//go:noinline
func goLock(mu *dimmunix.Mutex) {
	mu.Lock()
	mu.Unlock()
}

// lockerShape locks through a sync.Locker holding a promoted, whose Lock
// is the compiler's wrapper around Mutex.Lock.
//
//go:noinline
func lockerShape(l sync.Locker) { lockerMid(l) }

//go:noinline
func lockerMid(l sync.Locker) { lockerLock(l) }

//go:noinline
func lockerLock(l sync.Locker) {
	l.Lock()
	l.Unlock()
}

// methodValueShape locks through the method value of that sync.Locker:
// sync.Locker.Lock-fm < (*promoted).Lock < Mutex.Lock.
//
//go:noinline
func methodValueShape(l sync.Locker) { methodValueMid(l.Lock, l.Unlock) }

//go:noinline
func methodValueMid(lock, unlock func()) { methodValueLock(lock, unlock) }

//go:noinline
func methodValueLock(lock, unlock func()) {
	lock()
	unlock()
}

// TestWarmWrapperShapesNeverRecapture: a call site whose walk meets a
// wrapper frame inside its depth-bounded window is classified from its
// entry point's walk alone once warm — the walk's slack covers the
// wrapper, so its key is stored — and never captured again from inside
// the lock path. Without the slack a goroutine started by "go f(args)"
// recaptures on every acquisition near its bottom.
func TestWarmWrapperShapesNeverRecapture(t *testing.T) {
	shapes := []struct {
		name string
		lock func(*promoted)
	}{
		{"goStatementWithArgs", func(p *promoted) { goShape(&p.Mutex) }},
		{"promotedMethod", func(p *promoted) { lockerShape(p) }},
		{"promotedMethodValue", func(p *promoted) { methodValueShape(p) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			initDefault(t, dimmunix.WithMatchDepth(4))
			rt := dimmunix.Default()
			var p promoted
			captures := countCaptures(t)
			var warm int64
			var fast uint64
			const n = 100
			for i := range 1 + n { // one call line: the first acquisition warms it
				if i == 1 {
					warm, fast = captures.Load(), rt.Stats().FastAcquired
				}
				sh.lock(&p)
			}
			if got := captures.Load() - warm; got != 0 {
				t.Errorf("%d captures from inside the lock path over %d warm acquisitions, want 0", got, n)
			}
			if got := rt.Stats().FastAcquired - fast; got != n {
				t.Errorf("%d fast acquisitions, want %d", got, n)
			}
		})
	}
}

// The call paths of TestKeyShortOfItsBoundIsNotStored: shortLock <
// (*shortKey).deferred < shortThrough < shortX or shortY, with three wrapper
// frames among the first six physical ones — the method value of a
// sync.Locker's Lock, the deferred call's and the method value of
// deferred — so those six cover three application frames, one short of
// the depth-4 bound. The two paths differ in the fourth.

type shortKey struct{}

//go:noinline
func shortLock(lock func()) { lock() }

//go:noinline
func (k *shortKey) deferred(lock func()) {
	defer shortLock(lock)
}

//go:noinline
func shortX(k *shortKey, lock func()) { shortThrough(k.deferred, lock) }

//go:noinline
func shortY(k *shortKey, lock func()) { shortThrough(k.deferred, lock) }

//go:noinline
func shortThrough(step func(func()), lock func()) { step(lock) }

// TestKeyShortOfItsBoundIsNotStored: a frame-pointer walk whose wrappers
// outnumber the slack resolves to fewer application frames than its
// bound, so its key could not tell the two paths apart. It is never
// stored, so the safe shortY path is recaptured on each acquisition.
// runtime.Callers reports no wrapper frames, so its key covers the bound
// and is stored: shortY is captured once, cold. Either way a signature on
// the shortX path sends shortX to the guarded tier after shortY, which
// shares every frame but the fourth, was classified.
func TestKeyShortOfItsBoundIsNotStored(t *testing.T) {
	initDefault(t, dimmunix.WithMatchDepth(4))
	rt := dimmunix.Default()
	var p promoted
	var l sync.Locker = &p
	k := &shortKey{}

	shortX(k, l.Lock)
	p.Unlock()
	var sX stack.Stack
	for _, s := range rt.CapturedStacks() {
		if len(s) > 3 && strings.HasSuffix(s[0].Func, ".shortLock") && strings.HasSuffix(s[3].Func, ".shortX") {
			sX = s
		}
	}
	if sX == nil {
		t.Fatal("the shortX path's stack was not captured")
	}
	nobody := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: 1}}
	rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{sX, nobody}, 4))

	captures := countCaptures(t)
	for range 2 {
		before := rt.Stats()
		shortY(k, l.Lock)
		p.Unlock()
		if got := rt.Stats().FastAcquired - before.FastAcquired; got != 1 {
			t.Fatalf("safe path shortY: %d fast acquisitions, want 1", got)
		}
	}
	want, why := int64(2), "its short key must not be stored"
	if !walksFramePointers {
		want, why = 1, "its key covers its bound and is stored cold"
	}
	if got := captures.Load(); got != want {
		t.Errorf("shortY was captured from inside the lock path %d times in 2 acquisitions, want %d: %s", got, want, why)
	}
	before := rt.Stats()
	shortX(k, l.Lock)
	p.Unlock()
	if fast, guarded := rt.Stats().FastAcquired-before.FastAcquired, rt.Stats().GuardedAcquired-before.GuardedAcquired; fast != 0 || guarded != 1 {
		t.Fatalf("dangerous path shortX after shortY: fast=%d guarded=%d, want the guarded tier", fast, guarded)
	}
}

// TestRefusedKeyCostsTheRecaptureAlone: the short key of
// TestKeyShortOfItsBoundIsNotStored is checked once. On the frame-pointer
// walker its refusal is remembered, so each later acquisition from it
// pays the recapture from inside the lock path, which the call-site table
// answers, and resolves nothing. On runtime.Callers the key was stored,
// so a warm acquisition is never recaptured. Either way it allocates
// nothing.
func TestRefusedKeyCostsTheRecaptureAlone(t *testing.T) {
	// An idle monitor and no pruning: the lock path is the only allocator.
	initDefault(t, dimmunix.WithMatchDepth(4), dimmunix.WithTau(time.Hour), dimmunix.WithThreadTTL(-1))
	var p promoted
	var l sync.Locker = &p
	k, lock := &shortKey{}, l.Lock // one method value: making one allocates
	pair := func() {
		shortY(k, lock)
		p.Unlock()
	}
	for range 10 {
		pair()
	}
	captures := countCaptures(t)
	const runs = 200
	if avg := testing.AllocsPerRun(runs, pair); avg >= 1 {
		t.Errorf("an acquisition from a refused key allocates %.2f times, want 0: it is resolved and checked again", avg)
	}
	if got := captures.Load(); walksFramePointers && got < runs {
		t.Errorf("%d captures from inside the lock path in %d acquisitions from a refused key, want one each", got, runs)
	} else if !walksFramePointers && got != 0 {
		t.Errorf("%d captures from inside the lock path in %d acquisitions from a stored key, want 0", got, runs)
	}
}
