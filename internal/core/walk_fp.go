//go:build amd64 || arm64

package core

import "unsafe"

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
// in an entry point's body starts at the application's frame. It follows
// the frame-pointer chain (fpWalk), a few nanoseconds for the whole bound.
// An empty buf walks nothing.
//
// The PCs are physical: one per real frame, the return address into it.
// An inlined call shares its caller's PC and a compiler-generated wrapper
// has one of its own, so k PCs resolve (stack.ResolveWalk) to k logical
// frames plus the inlined ones, minus the wrappers runtime.Callers would
// have elided. Bound leaves walkSlack PCs for those wrappers. Nothing
// here checks the walk against runtime.Callers: classify does, on every
// table miss, and stores a key only where its resolution is the
// recapture's (keyCovers), so a walk that disagrees costs recaptures,
// never a stack.
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
	fp, gp := getfp()
	s.n = fpWalk(fp, gp, buf)
}

// walkSlack is how many PCs a walk takes beyond its bound of application
// frames. Walk's PCs are physical, and a compiler-generated wrapper
// between two application frames — a method value's, a promoted
// method's, a go or defer statement's — is one more physical frame that
// runtime.Callers, and the resolution, leave out. Without the slack a
// goroutine started by "go f(args)" could never cover its bound: its
// every key would stop one frame short and send each acquisition back to
// captureStack. A key that needs more than walkSlack wrappers is still
// sound, only never stored (classify).
const walkSlack = 2

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
