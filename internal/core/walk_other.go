//go:build !amd64 && !arm64

package core

import "runtime"

// Walk records into buf (s's own, from Bound) the raw PCs of the caller
// of the function it is called from, and outward: s.Walk(s.Bound(l)) in
// an entry point's body starts at the application's frame. This GOARCH
// has no frame-pointer walker, so Walk calls runtime.Callers, whose PCs
// are logical frames.
//
//go:noinline
func (s *Site) Walk(buf []uintptr) {
	// Skips runtime.Callers, Walk and the entry point.
	s.n = runtime.Callers(3, buf)
}

// verifyWalker has no frame-pointer walker to verify on this GOARCH.
func verifyWalker(int) bool { return false }
