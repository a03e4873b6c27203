//go:build amd64 || arm64

package core

import (
	"runtime"
	"unsafe"

	"dimmunix/internal/stack"
)

// getfp returns the frame pointer of the function that calls it
// (getfp_*.s) — the address of that function's frame record, whose first
// word is its caller's frame pointer and whose second is its return PC —
// and the calling goroutine's g, the runtime's descriptor of it, whose
// first two words are the bounds of the goroutine's stack. It returns
// unsafe.Pointers so that the walk reads the records through unsafe.Add,
// never a uintptr conversion.
func getfp() (fp, gp unsafe.Pointer)

// Walk records into buf (s's own, from Bound) the raw return PCs of the
// caller of the function it is called from, and outward: s.Walk(s.Bound(l))
// in an entry point's body starts at the application's frame. Once the
// walker is verified (walkerVerified) it follows the frame-pointer chain,
// a few nanoseconds for the whole bound; until then, and for good if the
// verification disagreed, it calls runtime.Callers. An empty buf walks
// nothing and settles nothing.
//
// The PCs are physical: one per real frame, the return address into it.
// An inlined call shares its caller's PC and a compiler-generated wrapper
// has one of its own, so k PCs resolve (stack.ResolveWalk) to k logical
// frames plus the inlined ones, minus the wrappers runtime.Callers would
// have elided. Bound leaves walkSlack PCs for those wrappers, and
// classify stores a key only where its resolution covers the bound.
//
// The hop count is fixed: Walk is never inlined, so the frame it reads
// is its own, one hop from the entry point's, whose return PC is the
// application's call site. That is why every entry point is noinline too:
// an entry point inlined into the application would put the application
// where the entry point's frame is expected, and its call site would be
// skipped.
//
//go:noinline
func (s *Site) Walk(buf []uintptr) {
	if len(buf) == 0 {
		return
	}
	if walkMode.Load() != walkFP && !s.probe && !walkerVerified() {
		// Skips runtime.Callers, Walk and the entry point.
		s.n = runtime.Callers(3, buf)
		return
	}
	fp, gp := getfp()
	s.n = fpWalk(fp, gp, buf)
}

// fpWalk records the return PCs of the frames above the one whose frame
// record fp is (Walk's): the first is the PC the entry point returns to.
// It reads only frame records inside the stack of the goroutine gp, each
// further up than the last, and stops at the first saved frame pointer
// that is not one — the bottom of the goroutine's stack saves a nil one —
// or when buf is full. So it never follows a frame pointer out of Go's
// own frames: Go code that C called back (cgo) runs on the goroutine's
// stack, and the callback's outermost frame saved a pointer into the
// thread's system stack, above which C code, built without frame
// pointers, leaves whatever its frame-pointer register held. The walk
// ends there, short of its bound, as a complete key that its check
// against runtime.Callers refuses (classify).
//
// Nosplit, so the stack cannot move under the walk; the frame records it
// reads are other functions' stack slots, which neither checkptr nor the
// race detector may instrument.
//
//go:nosplit
//go:nocheckptr
//go:norace
func fpWalk(fp, gp unsafe.Pointer, buf []uintptr) int {
	const word = unsafe.Sizeof(uintptr(0))
	lo, hi := *(*uintptr)(gp), *(*uintptr)(unsafe.Add(gp, word)) // runtime.g.stack
	below := uintptr(fp)
	if below < lo || below > hi-2*word {
		return 0
	}
	n := 0
	for ; n < len(buf); n++ {
		fp = *(*unsafe.Pointer)(fp) // Walk's frame -> the entry point's, and outward
		at := uintptr(fp)
		if at <= below || at > hi-2*word || at%word != 0 {
			break
		}
		buf[n] = *(*uintptr)(unsafe.Add(fp, word))
		below = at
	}
	return n
}

// verifyWalker walks a fixed call chain both by frame pointers (through
// Walk itself) and by runtime.Callers, on a goroutine of its own, and
// reports whether the two resolve to the same frames. The chain has every
// shape the resolution must get right: an inlined call, a method-value
// wrapper, a deferred call's wrapper and the go statement's wrapper at the
// bottom. skew drops that many frames off the front of the frame-pointer
// walk first — a walk starting that many frames out, as it would from an
// inlined entry point — to make it disagree (ForceWalkFallback).
func verifyWalker(skew int) bool {
	p := &walkProbe{}
	done := make(chan struct{})
	go probeTop(p, p.mid, done)
	<-done
	return len(p.ref) > 0 && p.walked[min(skew, len(p.walked)):].Equal(p.ref)
}

// walkProbe carries one verification: what the chain's two walks
// resolved to.
type walkProbe struct {
	walked, ref stack.Stack
}

//go:noinline
func probeTop(p *walkProbe, mid func(), done chan<- struct{}) {
	mid() // through the method value's wrapper
	close(done)
}

//go:noinline
func (p *walkProbe) mid() { p.inlined() }

// inlined is small enough to inline into mid: its call shares mid's PC.
func (p *walkProbe) inlined() { p.deferring() }

//go:noinline
func (p *walkProbe) deferring() {
	defer p.entry() // through the deferred call's wrapper
}

// entry plays an acquisition entry point: it walks its caller's frames
// with Walk, unverified, and captures the same frames with Callers.
//
//go:noinline
func (p *walkProbe) entry() {
	s := Site{probe: true}
	s.Walk(s.pcs[:])
	var ref [len(s.pcs)]uintptr
	n := runtime.Callers(2, ref[:]) // skips Callers and entry
	p.walked = stack.ResolveWalk(s.pcs[:s.n], stack.MaxCaptureDepth)
	p.ref = stack.ResolvePCs(ref[:n], stack.MaxCaptureDepth)
}
