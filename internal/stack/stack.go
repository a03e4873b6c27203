// Package stack provides the call-stack substrate for Dimmunix.
//
// Dimmunix signatures are multisets of call stacks (§5.3 of the paper).
// Stacks must be portable across executions, so frames are normalized to
// function name plus file:line — the Go analog of the pthreads port's
// "byte offset relative to the beginning of the binary".
//
// Frame order convention: index 0 is the innermost frame (the frame that
// called lock()); higher indices are callers. The paper's "matching depth"
// is the length of the innermost suffix considered during matching, so
// depth d compares frames [0..d).
package stack

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// Frame is one normalized call-stack frame.
type Frame struct {
	Func string // fully qualified function name
	File string // base file name (not the absolute path, for portability)
	Line int
}

// String renders the frame in the canonical "func@file:line" form used in
// persisted signatures.
func (f Frame) String() string {
	return f.Func + "@" + f.File + ":" + strconv.Itoa(f.Line)
}

// ParseFrame parses the canonical "func@file:line" form.
func ParseFrame(s string) (Frame, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return Frame{}, fmt.Errorf("stack: frame %q missing '@'", s)
	}
	colon := strings.LastIndexByte(s, ':')
	if colon < at {
		return Frame{}, fmt.Errorf("stack: frame %q missing ':line'", s)
	}
	line, err := strconv.Atoi(s[colon+1:])
	if err != nil {
		return Frame{}, fmt.Errorf("stack: frame %q bad line: %v", s, err)
	}
	return Frame{Func: s[:at], File: s[at+1 : colon], Line: line}, nil
}

// Stack is a call stack; Stack[0] is the innermost frame.
type Stack []Frame

// MaxCaptureDepth bounds how many frames Capture records. Signatures only
// ever need the deepest configured matching depth, plus slack for
// calibration to explore deeper rungs.
const MaxCaptureDepth = 32

// CapturePCs records up to len(buf) raw return PCs of the calling
// goroutine into buf, skipping skip frames above CapturePCs itself
// (skip=0 makes the caller of CapturePCs the innermost entry), and
// returns the number recorded. Capture and every capture from inside
// Dimmunix's lock path go through it; the buffer length is the capture
// bound. Frames are logical, as runtime.Callers counts them: inlined
// calls count, compiler-generated wrappers do not. (An acquisition entry
// point walks its own caller's frames instead, by frame pointers where it
// can: core.Site.Walk.)
func CapturePCs(skip int, buf []uintptr) int {
	// +2 skips runtime.Callers and CapturePCs itself.
	return runtime.Callers(skip+2, buf)
}

// Capture records the current goroutine's call stack, skipping skip frames
// on top of Capture itself (skip=0 means the caller of Capture is the
// innermost frame). At most max frames are recorded; max <= 0 means
// MaxCaptureDepth.
func Capture(skip, max int) Stack {
	if max <= 0 || max > MaxCaptureDepth {
		max = MaxCaptureDepth
	}
	var pcs [MaxCaptureDepth + 2]uintptr
	// +1: skip Capture itself (CapturePCs handles its own frames).
	n := CapturePCs(skip+1, pcs[:max])
	return ResolvePCs(pcs[:n], max)
}

// ResolvePCs expands a raw PC stack, as runtime.Callers records it, into
// at most max normalized frames. Resolution is deterministic: identical
// PC stacks always produce identical frames (inline expansion included),
// which is what makes PCCache sound.
func ResolvePCs(pcs []uintptr, max int) Stack {
	return resolve(pcs, max, false)
}

// ResolveWalk expands the physical return PCs of a frame-pointer walk
// into at most max normalized frames, the frames runtime.Callers would
// report for the same call path: runtime.CallersFrames recovers the
// inlined frames a physical PC stands for, and ResolveWalk drops the
// compiler-generated wrapper frames runtime.Callers elides, which a
// physical walk records like any other frame (see wrapperFrame). The
// wrappers are told by name, so a shape the names miss resolves to other
// frames than runtime.Callers'; that is why a walk's resolution only ever
// checks a walk against a runtime.Callers capture, and no stack Dimmunix
// keeps comes from it.
func ResolveWalk(pcs []uintptr, max int) Stack {
	return resolve(pcs, max, true)
}

func resolve(pcs []uintptr, max int, elide bool) Stack {
	if len(pcs) == 0 {
		return nil
	}
	if max <= 0 || max > MaxCaptureDepth {
		max = MaxCaptureDepth
	}
	// Copy before handing to CallersFrames, which retains its argument:
	// this keeps callers' stack-allocated PC buffers from escaping (the
	// hot capture path resolves only on a PC-cache miss).
	cp := make([]uintptr, len(pcs))
	copy(cp, pcs)
	frames := runtime.CallersFrames(cp)
	s := make(Stack, 0, len(pcs))
	for {
		fr, more := frames.Next()
		if fr.Function != "" && !(elide && wrapperFrame(fr.Function, fr.File)) {
			s = append(s, Frame{
				Func: fr.Function,
				File: baseName(fr.File),
				Line: fr.Line,
			})
		}
		if !more || len(s) >= max {
			break
		}
	}
	return s
}

// wrapperFrame reports whether the frame of function fn in file is a
// compiler-generated wrapper, which runtime.Callers leaves out of its PCs:
// a method value's ("…-fm"), a promoted or pointer-receiver method's and
// an ABI wrapper (all in "<autogenerated>"), and the closure a go or
// defer statement with arguments compiles to, named after the function it
// is in ("pkg.f.gowrap1", "pkg.(*T).m.deferwrap2"). A top-level function
// or a pointer method so named is not taken for one; a value method is
// ("pkg.T.gowrap1" reads as a closure of T), which costs its walks a
// recapture, never a frame of a stack. So is runtime.deferreturn, which
// runs a function's deferred calls where the compiler does not open-code
// them (in a build without optimizations, say): the linker marks it a
// wrapper, as it marks the others, so runtime.Callers leaves it out.
func wrapperFrame(fn, file string) bool {
	if file == "<autogenerated>" || fn == "runtime.deferreturn" || strings.HasSuffix(fn, "-fm") {
		return true
	}
	parent, name, ok := cutLast(fn[strings.LastIndexByte(fn, '/')+1:], '.')
	if !ok || !numbered(name, "gowrap") && !numbered(name, "deferwrap") {
		return false
	}
	_, outer, ok := cutLast(parent, '.') // the function the closure is in
	return ok && !strings.HasPrefix(outer, "(")
}

// cutLast slices s around the last instance of sep.
func cutLast(s string, sep byte) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// numbered reports whether name is prefix followed by a decimal number.
func numbered(name, prefix string) bool {
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok || digits == "" {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Clone returns a deep copy of s.
func (s Stack) Clone() Stack {
	if s == nil {
		return nil
	}
	c := make(Stack, len(s))
	copy(c, s)
	return c
}

// Suffix returns the innermost depth frames of s (all of s if depth exceeds
// its length, s itself if depth <= 0).
func (s Stack) Suffix(depth int) Stack {
	if depth <= 0 || depth >= len(s) {
		return s
	}
	return s[:depth]
}

// Equal reports whether two stacks have identical frames.
func (s Stack) Equal(o Stack) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// MatchesAtDepth reports whether the innermost depth frames of s and o are
// identical. A depth <= 0 compares complete stacks. Following the paper's
// matching rule, if either stack is shorter than depth the comparison falls
// back to the full common prefix: both stacks must then have equal length.
func (s Stack) MatchesAtDepth(o Stack, depth int) bool {
	if depth <= 0 {
		return s.Equal(o)
	}
	if len(s) < depth || len(o) < depth {
		return s.Equal(o)
	}
	for i := 0; i < depth; i++ {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// FNV-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashFrame(h uint64, f Frame) uint64 {
	h = hashString(h, f.Func)
	h ^= '@'
	h *= fnvPrime
	h = hashString(h, f.File)
	h ^= uint64(f.Line)
	h *= fnvPrime
	return h
}

// Hash returns the FNV-1a hash of the full stack.
func (s Stack) Hash() uint64 { return s.HashAtDepth(0) }

// HashAtDepth hashes the innermost depth frames (full stack if depth <= 0
// or depth >= len(s)).
func (s Stack) HashAtDepth(depth int) uint64 {
	if depth <= 0 || depth > len(s) {
		depth = len(s)
	}
	h := uint64(fnvOffset)
	for i := 0; i < depth; i++ {
		h = hashFrame(h, s[i])
	}
	return h
}

// AppendTo appends the canonical rendering of s — "f0@file:1 < f1@file:2
// < ...", innermost first, the persisted form — to b and returns the
// extended buffer. It is the only rendering of a stack: String wraps it,
// and signature IDs hash it.
func (s Stack) AppendTo(b []byte) []byte {
	for i, f := range s {
		if i > 0 {
			b = append(b, " < "...)
		}
		b = append(b, f.Func...)
		b = append(b, '@')
		b = append(b, f.File...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(f.Line), 10)
	}
	return b
}

// String renders the stack in the persisted form (see AppendTo).
func (s Stack) String() string {
	return string(s.AppendTo(nil))
}

// Parse parses the String form back into a Stack.
func Parse(s string) (Stack, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errors.New("stack: empty stack string")
	}
	out := make(Stack, 0, strings.Count(s, " < ")+1)
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, " < ")
		f, err := ParseFrame(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Synthetic builds a deterministic synthetic stack of the given depth from
// an integer seed. The workload generator (§7.2.2) uses this to simulate
// programs whose threads "call multiple functions ... chosen randomly, thus
// generating a uniformly distributed selection of call stacks" when stacks
// must be constructed rather than captured (e.g. for synthesized history
// signatures).
func Synthetic(seed uint64, depth int) Stack {
	if depth <= 0 {
		depth = 1
	}
	s := make(Stack, depth)
	x := seed*2862933555777941757 + 3037000493
	for i := 0; i < depth; i++ {
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		s[i] = Frame{
			Func: "synthetic.fn" + strconv.FormatUint(x%977, 10),
			File: "synthetic.go",
			Line: int(x % 4096),
		}
	}
	return s
}
