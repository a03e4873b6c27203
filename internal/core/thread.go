package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/stack"
)

// Thread is Dimmunix's handle for one application thread (goroutine).
// Obtain one explicitly with Runtime.RegisterThread (named, never pruned)
// or implicitly via Runtime.CurrentThread / the Mutex implicit-API methods
// (pruned once idle).
// A Thread must only be used by one goroutine at a time.
type Thread struct {
	rt  *Runtime
	ts  *avoidance.ThreadState
	gid uint64 // nonzero marks an implicitly-registered (prunable) thread

	// Idle-pruning state (implicit threads only; see Runtime.janitor).
	pins     atomic.Int32 // operations in flight holding this handle
	lastUse  atomic.Int64 // sweep-clock value at the last implicit lookup
	retired  atomic.Bool  // set by the pruner; pinners verify after pinning
	released atomic.Bool  // registry removal happened (Close or prune)

	abortMu sync.Mutex
	abort   chan struct{}

	// latCtr drives 1-in-64 fast-tier latency sampling (see
	// Runtime.latFast). Owned by the thread's goroutine; no atomics.
	latCtr uint32
}

// pin marks an operation in flight on this handle: the idle pruner never
// retires a pinned thread, so a blocked lock wait (which may leave no
// other avoidance footprint on the fast tier) cannot lose its identity
// or slot mid-operation. Every core lock/unlock/wait entry point pins for
// its duration; pinning an explicit (non-prunable) handle is harmless.
func (t *Thread) pin() { t.pins.Add(1) }

// unpin releases a pin taken by pin or Runtime.currentPinned.
func (t *Thread) unpin() { t.pins.Add(-1) }

func (t *Thread) siteView() (*Runtime, *atomic.Bool) { return t.rt, nil }

// ID returns the thread's Dimmunix ID.
func (t *Thread) ID() int32 { return t.ts.ID }

// Name returns the diagnostic name given at registration.
func (t *Thread) Name() string { return t.ts.Name }

// SetPriority sets the thread's scheduling priority for starvation-break
// victim selection (§8 extension): among starved threads, the
// highest-priority one is freed first. Default 0.
func (t *Thread) SetPriority(p int32) { t.ts.Priority.Store(p) }

// Priority returns the thread's priority.
func (t *Thread) Priority() int32 { return t.ts.Priority.Load() }

// Close deregisters the thread and prunes its state from the monitor's
// graph. The thread must not hold any Dimmunix mutex. Closing a thread
// the idle pruner already retired is a no-op.
func (t *Thread) Close() {
	t.rt.removeThread(t)
}

// signalAbort makes the thread's pending (and next) lock wait fail with
// ErrDeadlockRecovered.
func (t *Thread) signalAbort() {
	t.abortMu.Lock()
	select {
	case <-t.abort:
		// already signaled and not yet consumed
	default:
		close(t.abort)
	}
	t.abortMu.Unlock()
}

// abortChan returns the current abort channel.
func (t *Thread) abortChan() <-chan struct{} {
	t.abortMu.Lock()
	ch := t.abort
	t.abortMu.Unlock()
	return ch
}

// consumeAbort re-arms the abort channel after an abort was delivered.
func (t *Thread) consumeAbort() {
	t.abortMu.Lock()
	select {
	case <-t.abort:
		t.abort = make(chan struct{})
	default:
	}
	t.abortMu.Unlock()
}

// fullBound is the raw-PC bound of a capture taken from inside the lock
// path: captureDepth application frames below wrap Dimmunix frames.
func (rt *Runtime) fullBound(wrap int) int {
	return min(rt.cfg.captureDepth+wrap, stack.MaxCaptureDepth)
}

// Site is an acquisition entry point's capture of its caller's call site:
// the raw return PCs of the application's frames, walked in the entry
// point's own body, and the danger view that bounded the walk. Every
// public acquisition entry point fills one before it calls into the
// pipeline (Runtime.acquire), so the steady-state walk covers only the
// application's frames — none of Dimmunix's own:
//
//	var s Site
//	s.Walk(s.Bound(m))
//
// acquire classifies the PCs (Thread.classify) and never walks on the
// steady-state path. The PCs are whatever this GOARCH's Walk records —
// physical frames by frame pointers, or runtime.Callers' logical ones —
// and classify stores them as a key only once they resolve to
// runtime.Callers' stack (keyCovers). A Site bounded by another
// runtime's view is not classified: acquire then captures from inside.
type Site struct {
	rt    *Runtime     // whose view bounded the walk
	hint  *atomic.Bool // the bounding lock's tier hint, kept by acquire; nil: none
	epoch uint64       // danger-index epoch of a depth-bounded walk; 0: complete
	bound int          // application frames the walk must cover; 0: nothing walks
	n     int          // PCs recorded
	pcs   [stack.MaxCaptureDepth + walkSlack]uintptr
}

// siteOwner is a lock an entry point bounds its walk for: its runtime,
// and its tier hint — set while the lock's last acquisition took the
// guarded tier (nil for a capture that no lock owns).
type siteOwner interface {
	siteView() (*Runtime, *atomic.Bool)
}

// Bound reads the danger view of l's runtime — epoch and shallow depth
// from one DangerView load — and l's tier hint, and returns the buffer
// to walk: the bound, in application frames, plus walkSlack PCs for the
// wrappers a physical walk meets. The bound is as long as the view
// allows:
//
//   - ModeOff: empty, nothing walks;
//   - fast tier off, or only a full walk sound (ShallowDepth 0): a
//     complete capture of captureDepth frames;
//   - l's last acquisition took the guarded tier: the same complete
//     capture, which classify interns as the exact stack the guarded
//     tier needs, so a dangerous call site is walked once, not once
//     shallow and again from inside the lock path (captureStack);
//   - otherwise max(ShallowDepth, MatchDepth) frames, so a newly archived
//     signature's matching window stays covered by the key.
//
// The hint only picks the bound; the verdict is classify's either way.
// A stale "guarded" hint costs frames: a lock taken from both safe and
// dangerous call sites walks captureDepth frames on a safe acquisition
// that follows a guarded one. A stale "fast" hint costs the recapture.
//
// The walk's skip is exact, so no bound allows for Dimmunix frames.
func (s *Site) Bound(l siteOwner) []uintptr {
	rt, hint := l.siteView()
	s.rt, s.hint, s.epoch, s.n = rt, hint, 0, 0
	switch {
	case rt.cfg.Mode == ModeOff:
		s.bound = 0
	case !rt.cache.FastOK() || hint != nil && hint.Load():
		s.bound = rt.cfg.captureDepth
	default:
		ep, shallow := rt.cache.DangerView()
		s.bound = rt.cfg.captureDepth
		if shallow > 0 && max(shallow, rt.cfg.MatchDepth) < s.bound {
			s.epoch, s.bound = ep, max(shallow, rt.cfg.MatchDepth)
		}
	}
	return s.buf()
}

// BoundComplete is Bound for a capture that outlives a wait (Cond
// re-acquisition): a complete capture, whose PCs stay valid under any
// epoch, never a depth-bounded key read against a view the wait may have
// made stale.
func (s *Site) BoundComplete(l siteOwner) []uintptr {
	rt, hint := l.siteView()
	s.rt, s.hint, s.epoch, s.n = rt, hint, 0, 0
	s.bound = 0
	if rt.cfg.Mode != ModeOff {
		s.bound = rt.cfg.captureDepth
	}
	return s.buf()
}

// buf is the buffer Bound sized: the bound plus walkSlack, or empty when
// nothing walks.
func (s *Site) buf() []uintptr {
	if s.bound == 0 {
		return nil
	}
	return s.pcs[:s.bound+walkSlack]
}

// siteHook, when set, is handed the PCs of every acquisition's walk
// before they are classified (see HookSites).
var siteHook atomic.Pointer[func(buf []uintptr, n int) int]

// HookSites makes every acquisition call fn with its Site's walk buffer
// and the n PCs its entry point walked into it (0 when nothing walks),
// until restore runs. fn may rewrite the buffer: the acquisition
// classifies the PCs at its front, as many as fn returns. A hook set
// while another is set runs after it, on its PCs. It exists to test the
// pipeline on what entry points walk, and on what another walker would.
func HookSites(fn func(buf []uintptr, n int) int) (restore func()) {
	prev, next := siteHook.Load(), fn
	if prev != nil {
		fn = func(buf []uintptr, n int) int { return next(buf, (*prev)(buf, n)) }
	}
	siteHook.Store(&fn)
	return func() { siteHook.Store(prev) }
}

// ObserveSites makes every acquisition call fn with a copy of the PCs
// its entry point walked (empty when nothing walked), until restore
// runs. It exists to test that entry points hand down the application's
// own frames.
func ObserveSites(fn func(pcs []uintptr)) (restore func()) {
	return HookSites(func(buf []uintptr, n int) int { fn(append([]uintptr(nil), buf[:n]...)); return n })
}

// guardedHook, when set, observes the stack every guarded acquisition
// requests with (see ObserveGuarded).
var guardedHook atomic.Pointer[func(*stack.Interned)]

// ObserveGuarded makes every acquisition that takes the guarded tier
// call fn with the interned stack it hands the §5.4 request, until
// restore runs. It exists to test that a hinted walk (Site.Bound) yields
// the stack a capture from inside the lock path would.
func ObserveGuarded(fn func(in *stack.Interned)) (restore func()) {
	guardedHook.Store(&fn)
	return func() { guardedHook.Store(nil) }
}

// captureHook, when set, is called on every captureStack (see
// ObserveCaptures).
var captureHook atomic.Pointer[func()]

// ObserveCaptures makes every capture from inside the lock path
// (captureStack) call fn, until restore runs. It exists to test that a
// warm call site is classified from its entry point's walk alone.
func ObserveCaptures(fn func()) (restore func()) {
	captureHook.Store(&fn)
	return func() { captureHook.Store(nil) }
}

// captureStack records the caller's call stack with Dimmunix's own frames
// stripped, so the innermost frame is the application's lock call site —
// the Go analog of the paper's return-address stacks. It is the capture
// from inside the lock path, for the acquisitions whose entry-point walk
// cannot serve (Thread.classify), and the reference every walk's key is
// checked against before it is stored. It walks with runtime.Callers,
// whose PCs are logical frames.
//
// The symbolization/strip/intern pipeline is memoized by raw PC stack
// (Runtime.pcCache): after the first occurrence of a call path, a capture
// costs one stack walk plus one hash lookup.
//
// extraSkip counts frames above captureStack's caller to leave out of the
// walk. It need not be exact: internPCs strips Dimmunix frames after
// symbolization, and the capture bounds allow for however many of them it
// has observed.
func (t *Thread) captureStack(extraSkip int) *stack.Interned {
	if h := captureHook.Load(); h != nil {
		(*h)()
	}
	var pcbuf [stack.MaxCaptureDepth + 2]uintptr
	for {
		bound := t.rt.fullBound(int(t.rt.wrapDepth.Load()))
		n := stack.CapturePCs(extraSkip+1, pcbuf[:bound])
		if in := t.internPCs(pcbuf[:n], bound); in != nil {
			return in
		}
		// The walk was cut at a bound that undercounted this entry
		// point's wrapper ladder; internPCs raised it, so walk again.
	}
}

// internPCs maps a raw PC stack runtime.Callers captured under bound to
// its interned frame stack: pcCache hit, or the full
// symbolize/strip/truncate/intern pipeline, memoized into the pcCache.
// Stripping is where a stack's wrapper depth — the number of Dimmunix
// frames above the application's call site — is observed; it is folded
// into Runtime.wrapDepth here, before the stack can enter the pcCache, so
// the recorded depth is never below that of any stack a capture can
// return. When the walk filled a bound that left the application fewer
// than captureDepth frames, outer frames may have been cut off: internPCs
// then returns nil and the caller captures again under the raised bound.
func (t *Thread) internPCs(pcs []uintptr, bound int) *stack.Interned {
	rt := t.rt
	if in, ok := rt.pcCache.Get(pcs); ok && in != nil {
		return in
	}
	s, i := appFrames(stack.ResolvePCs(pcs, bound))
	for {
		w := rt.wrapDepth.Load()
		if int(w) >= i || rt.wrapDepth.CompareAndSwap(w, int32(i)) {
			break
		}
	}
	if len(pcs) == bound && bound < stack.MaxCaptureDepth && bound-i < rt.cfg.captureDepth {
		return nil
	}
	if len(s) > rt.cfg.captureDepth {
		s = s[:rt.cfg.captureDepth]
	}
	in := rt.interner.Intern(s.Clone())
	rt.pcCache.Put(pcs, in)
	return in
}

// appFrames strips Dimmunix's own leading frames (isRuntimeFrame) from a
// resolved stack, returning the application's frames and how many were
// stripped. A stack with no application frame in sight is kept whole.
func appFrames(raw stack.Stack) (stack.Stack, int) {
	i := 0
	for i < len(raw) && isRuntimeFrame(raw[i]) {
		i++
	}
	if i == len(raw) {
		i = 0
	}
	return raw[i:], i
}

// classify maps an entry point's walk to the caller's interned stack and
// whether the stack is provably safe (so the caller may take the
// lock-free fast tier). It never walks on the steady-state path.
//
// A walk that ended inside its buffer, or was bounded complete (epoch 0:
// fast tier off, a Cond wait, or a lock whose tier hint says its last
// acquisition was guarded — see Site.Bound), is a complete capture: the
// call-site table (Runtime.pcCache) maps it to the exact stack, valid
// forever, which serves either tier. A walk that filled a shallow bound
// is a depth-bounded key, whose table entry is a representative of the
// call paths sharing those frames: same verdict (it depends only on
// frames the key covers), possibly different outer frames. Either way
// the verdict is the epoch marker on the interned stack found there
// (Cache.ClassifySafe), for every thread alike. Three rules keep keys
// sound:
//
//   - a bounded key never feeds the guarded tier, whose §5.4 matching
//     and archival need the exact deep frames: a dangerous verdict
//     recaptures the full stack from inside (captureStack). A hinted
//     lock's walk is complete, so it is never recaptured;
//   - an epoch move invalidates a bounded key (the new index may need
//     deeper frames than it covers): the entry answers only at the epoch
//     of the view that bounded the walk, and the recapture replaces it
//     in place;
//   - a miss recaptures the stack (captureStack, runtime.Callers), and
//     the walk's key is stored only if it resolves to what the recapture
//     found, as far as the key answers for (keyCovers). So every stack
//     the table hands out is the one runtime.Callers gives, whatever
//     wrapper or inlined frames the physical walk met, and whatever
//     walker made it: this is the one check that Walk agrees with
//     runtime.Callers, and a walk that disagrees costs recaptures,
//     never a stack. Checked on the miss, never on a hit: a key that
//     does not cover is stored as a refusal (a nil entry), and every
//     acquisition that walks it pays the recapture alone.
//
// The epoch and bound come from one index load before the walk, so a
// concurrent index publish at worst leaves an entry stamped with the
// older epoch — forcing a recapture on the next call, never masking a
// newer index (stale fast holds are reconciled by the avoidance layer on
// the next guarded decision). PCs are never classified under another
// runtime's view (a retry after ErrMutexRetired rebinds to a fresh
// runtime): such a Site, or the zero Site, is recaptured from here.
//
// When the fast tier is off (mode, IgnoreDecisions, DisableFastPath) the
// verdict is always "not safe".
func (t *Thread) classify(s *Site) (*stack.Interned, bool) {
	rt, cache := t.rt, t.rt.cache
	if s.rt != rt {
		return t.captureClassified(1)
	}
	pcs := s.pcs[:s.n]
	cut := s.n == len(s.buf()) // the stack may go on past the walk
	epoch := s.epoch
	if !cut {
		epoch = 0
	}
	in, ok := rt.pcCache.GetAt(pcs, epoch)
	if in != nil {
		safe := cache.FastOK() && cache.ClassifySafe(in)
		if safe || epoch == 0 {
			return in, safe
		}
		return t.captureStack(1), false
	}
	in = t.captureStack(1)
	if !ok {
		key := in
		if !t.keyCovers(pcs, in, cut, s.bound) {
			key = nil
		}
		rt.pcCache.PutAt(pcs, key, epoch)
	}
	return in, cache.FastOK() && cache.ClassifySafe(in)
}

// keyCovers reports whether a walk's PCs resolve to the recaptured stack
// in as far as their key answers for it. A walk that ended inside its
// buffer is a complete key: its application frames, cut to captureDepth,
// must be in's. So must those of a walk that filled its buffer at the
// very bottom of a stack shorter than its bound. Any other walk that
// filled its buffer must cover its bound: its first bound application
// frames must be in's first bound frames. A filled walk that resolves to
// fewer — the stack had more wrapper frames than walkSlack — does not
// cover, nor does a walk that stopped short of the stack's bottom
// (fpWalk) or resolved to other frames than runtime.Callers'. It is the
// walker's only parity check with runtime.Callers: a walker that skips,
// adds or misnames frames has its keys refused here, one miss each.
func (t *Thread) keyCovers(pcs []uintptr, in *stack.Interned, cut bool, bound int) bool {
	s, _ := appFrames(stack.ResolveWalk(pcs, stack.MaxCaptureDepth))
	if !cut || len(in.S) < bound {
		return s.Suffix(t.rt.cfg.captureDepth).Equal(in.S)
	}
	return len(s) >= bound && s[:bound].Equal(in.S[:bound])
}

// captureClassified walks and classifies the caller's call site from
// wherever it is called, extraSkip frames further out, under t's runtime's
// view. Entry points walk in their own body instead; this is the capture
// for an acquisition whose entry walk t's runtime cannot classify. It
// walks with runtime.Callers, and its skip is not exact, which classify
// keeps sound: a key is stored only if, Dimmunix's frames stripped, it
// still covers what it answers for (keyCovers).
func (t *Thread) captureClassified(extraSkip int) (*stack.Interned, bool) {
	var s Site
	s.n = stack.CapturePCs(extraSkip+1, s.Bound(t))
	return t.classify(&s)
}

// isRuntimeFrame identifies Dimmunix's own frames: every function of this
// package and of the public facade package (top-level "dimmunix") that is
// not defined in a _test.go file — in-package callers such as these
// packages' tests must survive as the application. Keyed on the package
// rather than on a list of files or functions, so the lock path can be
// restructured without a new wrapper silently becoming every lock's
// "call site". Leading such frames are stripped from every capture, so
// the innermost frame of a captured stack is always the application's
// lock call site regardless of which API layer it used.
func isRuntimeFrame(f stack.Frame) bool {
	if strings.HasSuffix(f.File, "_test.go") {
		return false
	}
	pkg := funcPackage(f.Func)
	return pkg == "dimmunix/internal/core" || pkg == "dimmunix"
}

// funcPackage returns the import path of the package a fully qualified
// function name (runtime.Frame.Function) belongs to: everything before
// the first dot that follows the path's last slash. Receiver and
// type-argument decorations — which may themselves contain slashes and
// dots — come after that dot, so they are cut off first.
func funcPackage(fn string) string {
	path := fn
	if i := strings.IndexAny(path, "(["); i >= 0 {
		path = path[:i]
	}
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		return path[:slash+1+dot]
	}
	return path
}
