// Package gid extracts goroutine identities.
//
// The Go runtime deliberately hides goroutine IDs, but Dimmunix's
// thread-identity substrate needs one per "application thread" (§5.1's
// thread nodes). The identity is the runtime's own goid, which a process
// never reuses; the g pointer is recycled once its goroutine exits and the
// pprof-label pointer is inherited by child goroutines, so neither of
// those names one goroutine.
//
// Current reads the goid straight out of the runtime's g: a NOSPLIT
// assembly stub (getg_*.s) returns the calling goroutine's g, and the
// goid's offset in it is discovered once per process, by scanning g on
// the caller and on a few spawned goroutines for the word equal to each
// one's parsed ID (see discover). The read is trusted on verification:
// the first verifyN calls compare it against the parse, after which
// Current is one atomic load and one memory read, a few nanoseconds at any
// stack depth. Discovery that
// does not single out one offset, any disagreement while verifying, or a
// GOARCH with no stub switches the process to the parse for good, with no
// error: the header line of runtime.Stack ("goroutine N [running]:"),
// stable across all Go releases to date, which costs a stack dump
// (microseconds, growing with stack depth). Mode reports which of the
// three the process is in. BenchmarkCurrent here and benchmark/'s
// gid.current_ns and core.current_thread_ns rungs measure the cost.
package gid

import (
	"bytes"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	modeVerifying uint32 = iota // reading g, every read checked against the parse
	modeArmed                   // reading g alone
	modeParse                   // the runtime.Stack header, for the rest of the process
)

const (
	// verifyN is how many calls compare the read against the parse before
	// the read is trusted alone.
	verifyN = 64
	// scanWords bounds discovery's scan of g, which is larger than 400
	// bytes; the goid lies well inside them (offset 160 on go1.24). The
	// bit set of candidate offsets fits one uint64.
	scanWords = 400 / 8
	// discoverGoroutines is how many spawned goroutines discovery samples
	// besides the caller.
	discoverGoroutines = 4
)

var (
	discovery  sync.Once
	mode       atomic.Uint32 // modeVerifying -> modeArmed | modeParse
	verified   atomic.Uint32 // reads that agreed with the parse so far
	off        uintptr       // the goid's offset in g, set before mode is published
	unreadable atomic.Bool   // ForceUnreadable: the parse finds nothing
)

// Current returns the current goroutine's ID. It never fails on a
// conforming runtime; if the ID can be neither read nor parsed it returns
// 0, which is never a valid goroutine ID.
func Current() uint64 {
	if mode.Load() == modeArmed {
		return *(*uint64)(unsafe.Add(getg(), off))
	}
	return parseChecked()
}

// parseChecked is Current off the armed path: discovery on the first
// call in the process, then the parse, which while verifying is compared
// with the read.
func parseChecked() uint64 {
	discovery.Do(discover)
	id := parsed()
	if mode.Load() == modeVerifying {
		if *(*uint64)(unsafe.Add(getg(), off)) != id {
			mode.Store(modeParse)
		} else if verified.Add(1) == verifyN {
			// A disagreement stored concurrently must win over arming.
			mode.CompareAndSwap(modeVerifying, modeArmed)
		}
	}
	return id
}

// Mode reports how Current identifies goroutines: "verifying" (reading g,
// each read still checked against the parse), "armed" (reading g alone) or
// "parse" (the runtime.Stack header, for the rest of the process).
func Mode() string {
	discovery.Do(discover)
	switch mode.Load() {
	case modeArmed:
		return "armed"
	case modeParse:
		return "parse"
	}
	return "verifying"
}

// discover finds the goid's offset in g: the candidates on the caller and
// on discoverGoroutines spawned goroutines, each holding a different goid,
// are intersected, and settle decides on the survivors.
func discover() {
	g := getg()
	if g == nil {
		mode.Store(modeParse)
		return
	}
	set := candidates(g, parsed())
	found := make(chan uint64, discoverGoroutines)
	for range discoverGoroutines {
		go func() { found <- candidates(getg(), parsed()) }()
	}
	for range discoverGoroutines {
		set &= <-found
	}
	settle(set)
}

// candidates returns, as a bit set (bit i is byte offset 8i), the words
// among g's first scanWords that equal id.
func candidates(g unsafe.Pointer, id uint64) uint64 {
	if id == 0 {
		return 0
	}
	var set uint64
	for i := range scanWords {
		if *(*uint64)(unsafe.Add(g, 8*i)) == id {
			set |= 1 << i
		}
	}
	return set
}

// settle starts verifying the read at the one offset every sample agreed
// on; zero or several survivors leave the process on the parse.
func settle(set uint64) {
	if bits.OnesCount64(set) != 1 {
		mode.Store(modeParse)
		return
	}
	off = uintptr(bits.TrailingZeros64(set)) * 8
	mode.Store(modeVerifying)
}

// ForceUnreadable makes Current return 0, as on a runtime whose goroutine
// IDs can be neither read nor parsed: the process leaves the read for the
// parse, and the parse finds nothing, until restore runs. It exists to
// test callers that must refuse an unusable identity.
func ForceUnreadable() (restore func()) {
	discovery.Do(discover)
	unreadable.Store(true)
	prev := mode.Swap(modeParse)
	return func() {
		mode.Store(prev)
		unreadable.Store(false)
	}
}

var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 64); return &b },
}

var prefix = []byte("goroutine ")

// parsed returns the goid from the header of the caller's runtime.Stack
// traceback, or 0.
func parsed() uint64 {
	if unreadable.Load() {
		return 0
	}
	bp := bufPool.Get().(*[]byte)
	b := *bp
	n := runtime.Stack(b, false)
	id := parse(b[:n])
	bufPool.Put(bp)
	return id
}

// parse extracts N from "goroutine N [...".
func parse(b []byte) uint64 {
	if !bytes.HasPrefix(b, prefix) {
		return 0
	}
	b = b[len(prefix):]
	end := bytes.IndexByte(b, ' ')
	if end <= 0 {
		return 0
	}
	id, err := strconv.ParseUint(string(b[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
