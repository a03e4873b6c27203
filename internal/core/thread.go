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

// fullBound is the raw-PC bound of a full capture: captureDepth
// application frames below wrap Dimmunix frames.
func (rt *Runtime) fullBound(wrap int) int {
	return min(rt.cfg.captureDepth+wrap, stack.MaxCaptureDepth)
}

// captureStack records the caller's call stack with Dimmunix's own frames
// stripped, so the innermost frame is the application's lock call site —
// the Go analog of the paper's return-address stacks.
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

// captureClassified is captureStack fused with the fast-tier gate: it
// returns the caller's interned stack and whether the stack is provably
// safe (so the caller may take the lock-free fast tier).
//
// Steady state is a depth-bounded capture: the danger index publishes
// (with its epoch) the minimum number of innermost frames that yields
// the same Dangerous verdict as a full walk (DangerIndex.ShallowDepth),
// and the hot path walks only that many application frames — or
// MatchDepth, if larger, so a newly archived signature's matching window
// stays covered by the key — below the wrapper ladder, instead of the
// full captureDepth. A published ShallowDepth of 0 (calibration-live or
// depth<=0 signatures) means only the full walk is sound.
//
// Either way the raw PCs are looked up once in the runtime-wide call-site
// table (Runtime.pcCache) and the verdict is the epoch marker on the
// interned stack found there (Cache.ClassifySafe) — for every thread
// alike. A walk that ended inside its bound is a complete capture: the
// table's stack is exact and valid forever. A walk that filled a shallow
// bound yields a depth-bounded key, whose table entry is a representative
// of the call paths sharing those frames: same verdict (it depends only
// on frames the key covers), possibly different outer frames. Two rules
// keep that sound:
//
//   - a bounded key never feeds the guarded tier, whose §5.4 matching
//     and archival need the exact deep frames: a miss or a dangerous
//     verdict recaptures the full stack;
//   - an epoch move invalidates a bounded key (the new index may need
//     deeper frames than it covers): the entry answers only at the epoch
//     it was recorded at, and the recapture replaces it in place.
//
// The epoch and shallow depth are read from one index load before the
// lookup, so a concurrent index publish at worst leaves an entry stamped
// with the older epoch — forcing a recapture on the next call, never
// masking a newer index (stale fast holds are reconciled by the
// avoidance layer on the next guarded decision).
//
// When the fast tier is off (mode, IgnoreDecisions, DisableFastPath) the
// verdict is always "not safe" and this devolves to captureStack.
func (t *Thread) captureClassified(extraSkip int) (*stack.Interned, bool) {
	rt, cache := t.rt, t.rt.cache
	if !cache.FastOK() {
		return t.captureStack(extraSkip + 1), false
	}
	ep, shallow := cache.DangerView()
	wrap := rt.wrapDepth.Load()
	full := rt.fullBound(int(wrap))
	bound := full
	if shallow > 0 {
		bound = min(max(shallow, rt.cfg.MatchDepth)+int(wrap), full)
	}
	var pcbuf [stack.MaxCaptureDepth + 2]uintptr
	pcs := pcbuf[:stack.CapturePCs(extraSkip+1, pcbuf[:bound])]
	bounded := len(pcs) == bound && bound < full
	if !bounded {
		if in := t.internPCs(pcs, full); in != nil {
			return in, cache.ClassifySafe(in)
		}
		// A full walk cut short by a stale bound: captureStack retries.
	} else if in, ok := rt.pcCache.GetAt(pcs, ep); ok {
		if cache.ClassifySafe(in) {
			return in, true
		}
		return t.captureStack(extraSkip + 1), false
	}
	in := t.captureStack(extraSkip + 1)
	// in's own wrapper depth is folded into wrapDepth by now. Unchanged
	// means the bound allowed for it, so the key covers every application
	// frame the verdict depends on; otherwise the next call recaptures
	// under the deeper bound.
	if bounded && rt.wrapDepth.Load() == wrap {
		rt.pcCache.PutAt(pcs, in, ep)
	}
	return in, cache.ClassifySafe(in)
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
