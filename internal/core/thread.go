package core

import (
	"runtime"
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

func (t *Thread) runtime() *Runtime { return t.rt }

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
// application's frames — none of Dimmunix's own, which runtime.Callers
// would unwind at full price even when skipped:
//
//	var s Site
//	s.Walk(s.Bound(m))
//
// acquire classifies the PCs (Thread.classify) and never walks on the
// steady-state path. A Site bounded by another runtime's view is not
// classified: acquire then captures from inside.
type Site struct {
	rt    *Runtime // whose view bounded the walk
	epoch uint64   // danger-index epoch of a depth-bounded walk; 0: complete
	bound int      // walk bound in application frames; 0: nothing walks
	n     int      // PCs recorded
	pcs   [stack.MaxCaptureDepth]uintptr
}

// siteOwner is a lock an entry point bounds its walk for.
type siteOwner interface{ runtime() *Runtime }

// Bound reads the danger view of l's runtime — epoch and shallow depth
// from one DangerView load — and returns the buffer to walk, as long as
// the view allows:
//
//   - ModeOff: empty, nothing walks;
//   - fast tier off, or only a full walk sound (ShallowDepth 0): a
//     complete capture of captureDepth frames;
//   - otherwise max(ShallowDepth, MatchDepth) frames, so a newly archived
//     signature's matching window stays covered by the key.
//
// The walk's skip is exact, so neither bound allows for Dimmunix frames.
func (s *Site) Bound(l siteOwner) []uintptr {
	rt := l.runtime()
	s.rt, s.epoch, s.n = rt, 0, 0
	switch {
	case rt.cfg.Mode == ModeOff:
		s.bound = 0
	case !rt.cache.FastOK():
		s.bound = rt.cfg.captureDepth
	default:
		ep, shallow := rt.cache.DangerView()
		s.bound = rt.cfg.captureDepth
		if shallow > 0 && max(shallow, rt.cfg.MatchDepth) < s.bound {
			s.epoch, s.bound = ep, max(shallow, rt.cfg.MatchDepth)
		}
	}
	return s.pcs[:s.bound]
}

// BoundComplete is Bound for a capture that outlives a wait (Cond
// re-acquisition): a complete capture, whose PCs stay valid under any
// epoch, never a depth-bounded key read against a view the wait may have
// made stale.
func (s *Site) BoundComplete(l siteOwner) []uintptr {
	rt := l.runtime()
	s.rt, s.epoch, s.n = rt, 0, 0
	s.bound = 0
	if rt.cfg.Mode != ModeOff {
		s.bound = rt.cfg.captureDepth
	}
	return s.pcs[:s.bound]
}

// Walk records into buf (s's own, from Bound) the raw PCs of the caller
// of the function it is called from, and outward: s.Walk(s.Bound(l)) in
// an entry point's body starts at the application's frame. It must run
// in the entry point's own body and inline there, since every frame it
// added would be unwound too; that is why it calls runtime.Callers
// directly rather than through stack.CapturePCs, which would take it
// over the inlining budget. An empty buf walks nothing.
func (s *Site) Walk(buf []uintptr) {
	// Skips runtime.Callers, Walk and the entry point.
	s.n = runtime.Callers(3, buf)
}

// siteHook, when set, observes the PCs every acquisition is handed (see
// ObserveSites).
var siteHook atomic.Pointer[func([]uintptr)]

// ObserveSites makes every acquisition call fn with a copy of the PCs
// its entry point walked (empty when nothing walked), until restore
// runs. It exists to test that entry points hand down the application's
// own frames.
func ObserveSites(fn func(pcs []uintptr)) (restore func()) {
	siteHook.Store(&fn)
	return func() { siteHook.Store(nil) }
}

// captureStack records the caller's call stack with Dimmunix's own frames
// stripped, so the innermost frame is the application's lock call site —
// the Go analog of the paper's return-address stacks. It is the capture
// from inside the lock path, for the acquisitions whose entry-point walk
// cannot serve (Thread.classify).
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

// internPCs maps a raw PC stack captured under bound to its interned
// frame stack: pcCache hit, or the full symbolize/strip/truncate/intern
// pipeline, memoized into the pcCache.
// Stripping is where a stack's wrapper depth — the number of Dimmunix
// frames above the application's call site — is observed; it is folded
// into Runtime.wrapDepth here, before the stack can enter the pcCache, so
// the recorded depth is never below that of any stack a capture can
// return. When the walk filled a bound that left the application fewer
// than captureDepth frames, outer frames may have been cut off: internPCs
// then returns nil and the caller captures again under the raised bound.
// An entry point's complete walk has no Dimmunix frame to strip.
func (t *Thread) internPCs(pcs []uintptr, bound int) *stack.Interned {
	rt := t.rt
	if in, ok := rt.pcCache.Get(pcs); ok {
		return in
	}
	raw := stack.ResolvePCs(pcs, bound)
	i := 0
	for i < len(raw) && isRuntimeFrame(raw[i]) {
		i++
	}
	if i == len(raw) {
		i = 0 // no application frame in sight: keep the stack whole
	}
	for {
		w := rt.wrapDepth.Load()
		if int(w) >= i || rt.wrapDepth.CompareAndSwap(w, int32(i)) {
			break
		}
	}
	if len(pcs) == bound && bound < stack.MaxCaptureDepth && bound-i < rt.cfg.captureDepth {
		return nil
	}
	s := raw[i:]
	if len(s) > rt.cfg.captureDepth {
		s = s[:rt.cfg.captureDepth]
	}
	in := rt.interner.Intern(s.Clone())
	rt.pcCache.Put(pcs, in)
	return in
}

// classify maps an entry point's walk to the caller's interned stack and
// whether the stack is provably safe (so the caller may take the
// lock-free fast tier). It never walks on the steady-state path.
//
// A walk that ended inside its bound is a complete capture: the
// call-site table (Runtime.pcCache) maps it to the exact stack, valid
// forever. A walk that filled a shallow bound is a depth-bounded key,
// whose table entry is a representative of the call paths sharing those
// frames: same verdict (it depends only on frames the key covers),
// possibly different outer frames. Either way the verdict is the epoch
// marker on the interned stack found there (Cache.ClassifySafe), for
// every thread alike. Three rules keep bounded keys sound:
//
//   - a bounded key never feeds the guarded tier, whose §5.4 matching
//     and archival need the exact deep frames: a miss or a dangerous
//     verdict recaptures the full stack from inside (captureStack);
//   - an epoch move invalidates a bounded key (the new index may need
//     deeper frames than it covers): the entry answers only at the epoch
//     of the view that bounded the walk, and the recapture replaces it
//     in place;
//   - a key is stored only if its innermost frame is the recaptured
//     stack's — the application's call site — so it covers as many
//     application frames as the verdict reads. Checked on the miss, never
//     on a hit.
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
	if s.epoch == 0 || len(pcs) < s.bound {
		in := t.internPCs(pcs, rt.cfg.captureDepth)
		if in == nil {
			// The walk started inside Dimmunix and the bound cut the
			// application short: recapture.
			in = t.captureStack(1)
		}
		return in, cache.FastOK() && cache.ClassifySafe(in)
	}
	if in, ok := rt.pcCache.GetAt(pcs, s.epoch); ok {
		if cache.ClassifySafe(in) {
			return in, true
		}
		return t.captureStack(1), false
	}
	in := t.captureStack(1)
	if f := stack.ResolvePCs(pcs[:1], 1); len(f) == 1 && len(in.S) > 0 && f[0] == in.S[0] {
		rt.pcCache.PutAt(pcs, in, s.epoch)
	}
	return in, cache.ClassifySafe(in)
}

// captureClassified walks and classifies the caller's call site from
// wherever it is called, extraSkip frames further out, under t's runtime's
// view. Entry points walk in their own body instead; this is the capture
// for an acquisition whose entry walk t's runtime cannot classify. Its
// skip is not exact, which classify keeps sound: a key whose innermost
// frame is Dimmunix's is never stored, and a complete walk is stripped.
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
