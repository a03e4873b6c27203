package core

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dimmunix/internal/avoidance"
	"dimmunix/internal/stack"
)

// Thread is Dimmunix's handle for one application thread (goroutine).
// Obtain one explicitly with Runtime.RegisterThread (fast) or implicitly
// via Runtime.CurrentThread / the Mutex implicit-API methods (convenient).
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

	// cls is the per-goroutine classification table: a tiny direct-mapped
	// cache from raw PC stack to (interned stack, safe/dangerous verdict),
	// validated against the danger-index epoch. A Thread is used by one
	// goroutine at a time, so the table needs no synchronization; the
	// steady-state hot path costs one depth-bounded stack capture, one
	// hash, one epoch load — and zero allocations. See captureClassified.
	cls [classSlots]classEntry
}

const (
	classSlots = 4  // direct-mapped slots per thread
	classPCs   = 16 // max raw-PC depth a slot can hold
)

// classEntry caches one call path's capture + classification.
//
// When truncated is set the key (pcs[:n]) is a depth-bounded capture: it
// covers only the innermost frames the danger index needs for a sound
// verdict (max(DangerIndex.ShallowDepth, MatchDepth) application frames
// below Runtime.wrapDepth wrapper frames — an entry is only ever stored
// once its key is known to cover that many), and in holds the full stack
// captured at miss time — a representative of the call paths sharing that
// shallow prefix. The classification verdict is identical for every such
// path (it depends only on frames the key covers), but the
// representative's outer frames may differ from the live path's, so
// truncated entries are never allowed to feed the guarded tier: a
// dangerous verdict escalates to a fresh full capture, and an epoch move
// discards the entry (the new index may need deeper frames than the key
// covers).
type classEntry struct {
	in        *stack.Interned // nil marks an empty slot
	epoch     uint64          // danger-index epoch the verdict was computed at
	n         uint8           // raw PC count
	truncated bool            // key is a depth-bounded capture (see above)
	dangerous bool            // verdict at epoch
	pcs       [classPCs]uintptr
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

// capturePCs is the single raw-PC capture site for the core layer: both
// the full-stack path (captureStack) and the fast-tier classification
// path (captureClassified) funnel through it into stack.CapturePCs,
// which is runtime.Callers by default and the frame-pointer walker under
// -tags dimmunix.fp. extraSkip counts frames above capturePCs's caller
// (extraSkip=0 makes the caller's caller the innermost entry, matching
// the old runtime.Callers(extraSkip+2, ...) accounting).
//
// capturePCs and both its callers are noinline so the skip chain is made
// of physical frames: the frame-pointer walker skips physical frames,
// and inlining any function in the chain would make its physical count
// diverge from runtime.Callers' logical count. Frames above the chain
// (Runtime.acquire and the entry point that called it) need no exact
// skip: internPCs strips Dimmunix frames after symbolization and the
// capture bounds allow for however many of them it has observed.
//
//go:noinline
func capturePCs(extraSkip int, buf []uintptr) int {
	return stack.CapturePCs(extraSkip+2, buf)
}

// fullBound is the raw-PC bound of a full capture: StackDepth application
// frames below wrap Dimmunix frames.
func (rt *Runtime) fullBound(wrap int) int {
	return min(rt.cfg.StackDepth+wrap, stack.MaxCaptureDepth)
}

// captureStack records the caller's call stack with Dimmunix's own frames
// stripped, so the innermost frame is the application's lock call site —
// the Go analog of the paper's return-address stacks.
//
// With the fast tier enabled, the symbolization/strip/intern pipeline is
// memoized by raw PC stack (Runtime.pcCache): after the first occurrence
// of a call path, a capture costs one stack walk plus one hash lookup.
// DisableFastPath keeps the full per-operation pipeline.
//
//go:noinline
func (t *Thread) captureStack(extraSkip int) *stack.Interned {
	var pcbuf [stack.MaxCaptureDepth + 2]uintptr
	for {
		bound := t.rt.fullBound(int(t.rt.wrapDepth.Load()))
		n := capturePCs(extraSkip, pcbuf[:bound])
		if in := t.internPCs(pcbuf[:n], bound); in != nil {
			return in
		}
		// The walk was cut at a bound that undercounted this entry
		// point's wrapper ladder; internPCs raised it, so walk again.
	}
}

// internPCs maps a raw PC stack captured under bound to its interned
// frame stack: pcCache hit, or the full symbolize/strip/truncate/intern
// pipeline (memoized into the pcCache when the fast tier is on).
// Stripping is where a stack's wrapper depth — the number of Dimmunix
// frames above the application's call site — is observed; it is folded
// into Runtime.wrapDepth here, before the stack can enter the pcCache, so
// the recorded depth is never below that of any stack a capture can
// return. When the walk filled a bound that left the application fewer
// than StackDepth frames, outer frames may have been cut off: internPCs
// then returns nil and the caller captures again under the raised bound.
func (t *Thread) internPCs(pcs []uintptr, bound int) *stack.Interned {
	rt := t.rt
	if rt.pcCache != nil {
		if in, ok := rt.pcCache.Get(pcs); ok {
			return in
		}
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
	if len(pcs) == bound && bound < stack.MaxCaptureDepth && bound-i < rt.cfg.StackDepth {
		return nil
	}
	s := raw[i:]
	if len(s) > rt.cfg.StackDepth {
		s = s[:rt.cfg.StackDepth]
	}
	in := rt.interner.Intern(s.Clone())
	if rt.pcCache != nil {
		rt.pcCache.Put(pcs, in)
	}
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
// full StackDepth. On a raw-PC hit whose cached verdict is current
// (danger-index epoch matches) and safe, no map shard, no interner, and
// no allocation is touched at all. Escalation back to the full walk
// happens exactly when the shallow capture cannot stand on its own:
//
//   - a published ShallowDepth of 0 (calibration-live or depth<=0
//     signatures): the conservative envelope, full capture as before;
//   - a cache miss: the full stack is needed to intern for archiving
//     and event bookkeeping (the shallow key then caches it — unless the
//     full stack's wrapper ladder turned out deeper than the bound
//     allowed for, in which case the key may cover too few application
//     frames and nothing is cached under it);
//   - a dangerous verdict on a truncated key: the guarded tier's §5.4
//     matching and archival need the exact deep frames, which a
//     truncated key cannot vouch for (see classEntry);
//   - an epoch move over a truncated entry: the new index may need
//     deeper frames than the key covers, so the entry is discarded and
//     the call path recaptured under the new bound.
//
// The epoch and shallow depth are read from one index load before
// classifying, so a concurrent index publish at worst leaves the entry
// stamped with the older epoch — forcing a revalidation on the next
// hit, never masking a newer index (the PR 7 staleness argument; stale
// fast holds are reconciled by the avoidance layer on the next guarded
// decision).
//
// When the fast tier is off (mode, IgnoreDecisions, DisableFastPath) the
// verdict is always "not safe" and this devolves to captureStack.
//
//go:noinline
func (t *Thread) captureClassified(extraSkip int) (*stack.Interned, bool) {
	rt, cache := t.rt, t.rt.cache
	if rt.pcCache == nil || !cache.FastOK() {
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
	n := capturePCs(extraSkip, pcbuf[:bound])
	pcs := pcbuf[:n]
	truncated := n == bound && bound < full
	var e *classEntry // nil: too deep for a slot, classify uncached
	if n <= classPCs {
		e = &t.cls[stack.HashPCs(pcs)%classSlots]
		if e.in != nil && slices.Equal(e.pcs[:e.n], pcs) {
			stale := e.epoch != ep
			if stale && !e.truncated {
				// Complete capture: the cached stack is exact, so the
				// verdict can revalidate in place via the marker cache.
				e.dangerous = !cache.ClassifySafe(e.in)
				e.epoch = ep
				stale = false
			}
			if !stale {
				if e.dangerous && e.truncated {
					// Guarded tier ahead: recapture the exact full stack.
					return t.captureStack(extraSkip + 1), false
				}
				return e.in, !e.dangerous
			}
			// Stale truncated entry: discard and refill below.
		}
	}
	var in *stack.Interned
	if !truncated {
		in = t.internPCs(pcs, full)
	}
	if in == nil {
		// The walk stopped at its bound, so the full stack must be
		// recaptured for archiving and event bookkeeping; the shallow
		// PCs stay as the cache key.
		in = t.captureStack(extraSkip + 1)
	}
	safe := cache.ClassifySafe(in)
	// in's own wrapper depth is folded into wrapDepth by now. Unchanged
	// means the bound allowed for it, so the key covers every application
	// frame the verdict depends on; otherwise the next call recaptures
	// under the deeper bound.
	if e != nil && rt.wrapDepth.Load() == wrap {
		e.in = in
		e.epoch = ep
		e.n = uint8(n)
		e.truncated = truncated
		e.dangerous = !safe
		copy(e.pcs[:], pcs)
	}
	return in, safe
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
